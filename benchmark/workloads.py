"""Seeded CLI inputs for the three benchmark workloads.

Each op is one ``poissonplan`` command line plus the PLAN_THREADS it runs
under, and the parameters the checks need.  Parameters come from a
low-discrepancy sequence with a seeded random shift, taken in antithetic
pairs, so every prefix of the op list covers its parameter ranges evenly.  A run stops after a time
budget, not an op count, so this keeps the mix of cheap and expensive ops
(and with it every metric) nearly the same from seed to seed.

plan-exact  ``size --method exact``: the paper's headline computation, many
            cheap exact evaluations on narrow windows.  PLAN_THREADS=1.
verify-mc   ``verify --mc-trials 1000000``: the Monte Carlo sampler, on both
            sides of its theta = 30 switch; the exact layer does ~0.1%.
scan-wide   mostly ``scan`` at the closed-form n over wide mean ranges, plus
            ``verify`` without MC up to theta = 1e11 and ``bound --exact``
            for theta in [1e3, 1e6]: few evaluations on wide windows, memory
            growing with sqrt(theta), and large reports.
"""

from __future__ import annotations

import math
import random

from reference import closed_form_n

WORKLOADS = ("plan-exact", "verify-mc", "scan-wide")

# Directory, relative to the checkout root, for the CSV files ``scan --out`` writes.
TMP_DIR = ".bench_tmp"

MIN_OPS = 20  # fewest ops in a run; op_tail_ms needs more than 10
CANONICAL = (0.1, 0.1, 0.05)  # the paper's example budget; exact minimal n = 381
MC_TRIALS = 1_000_000
SCAN_POINTS = 200
ANCHOR_THETA = 1e11  # largest theta a scan-wide run evaluates; sets most of its peak memory

# Known-defect inputs (extreme means), run apart from the timed ops.
EDGE_PROBES = (
    ["verify", "--n", "762", "--lambda", "1e30", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05"],
    ["verify", "--n", "762", "--lambda", "1e300", "--eps-a", "0.1", "--eps-r", "0.1", "--delta", "0.05"],
)

# scan-wide op kinds, repeated in this order after the anchor op.
_SCAN_WIDE_CYCLE = (
    "scan_csv", "scan_rows", "verify", "scan_csv", "bound",
    "scan_rows", "scan_csv", "verify", "scan_rows", "bound",
)


class _Sequence:
    """Roberts' R_d sequence with a seeded random shift, in antithetic pairs.

    Each point u is followed by its mirror 1 - u, so an expensive corner of
    the parameter ranges arrives together with a cheap one and any prefix
    of the op list holds a balanced mix.
    """

    def __init__(self, rng: random.Random, dims: int):
        phi = 2.0
        for _ in range(64):  # phi_d is the positive root of x^(d+1) = x + 1
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self._alpha = [phi ** -(j + 1) for j in range(dims)]
        self._shift = [rng.random() for _ in range(dims)]
        self._i = 0
        self._mirror = None

    def next(self) -> list:
        if self._mirror is not None:
            u, self._mirror = self._mirror, None
            return u
        self._i += 1
        u = [(s + self._i * a) % 1.0 for s, a in zip(self._shift, self._alpha)]
        self._mirror = [1.0 - x for x in u]
        return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _budget(u: list) -> tuple:
    return (
        _log_uniform(u[0], 0.05, 1.0),
        _log_uniform(u[1], 0.05, 0.8),
        _log_uniform(u[2], 0.01, 0.2),
    )


def _budget_argv(budget: tuple) -> list:
    eps_a, eps_r, delta = budget
    return ["--eps-a", repr(eps_a), "--eps-r", repr(eps_r), "--delta", repr(delta)]


def _threads(u: float, nproc: int) -> int:
    return 1 + min(int(u * nproc), nproc - 1)


def _plan_exact(rng: random.Random, count: int, nproc: int) -> list:
    seq = _Sequence(rng, 3)
    ops = []
    for i in range(count):
        budget = CANONICAL if i == 0 else _budget(seq.next())
        ops.append({
            "kind": "size",
            "argv": ["size", "--method", "exact"] + _budget_argv(budget),
            "threads": 1,
            "budget": budget,
        })
    return ops


def _verify_mc(rng: random.Random, count: int, nproc: int) -> list:
    seq = _Sequence(rng, 6)
    seed_base = rng.randrange(2**32)
    ops = []
    for i in range(count):
        u = seq.next()
        budget = _budget(u)
        eps_a, eps_r, _ = budget
        n = round(_log_uniform(u[3], 50, 3000))
        lam = _log_uniform(u[4], eps_a / 10.0, 100.0 * eps_a / eps_r)
        ops.append({
            "kind": "verify_mc",
            "argv": ["verify", "--n", str(n), "--lambda", repr(lam)] + _budget_argv(budget)
            + ["--mc-trials", str(MC_TRIALS), "--seed", str(seed_base + i)],
            "threads": _threads(u[5], nproc),
            "budget": budget,
            "n": n,
            "lam": lam,
            "theta": n * lam,
            "trials": MC_TRIALS,
        })
    return ops


def _scan_wide(rng: random.Random, count: int, nproc: int) -> list:
    n = closed_form_n(*CANONICAL)
    lam = ANCHOR_THETA / n
    ops = [{
        "kind": "verify",
        "argv": ["verify", "--n", str(n), "--lambda", repr(lam)] + _budget_argv(CANONICAL),
        "threads": 1,
        "budget": CANONICAL,
        "n": n,
        "lam": lam,
    }]
    seqs = {
        "scan_csv": _Sequence(rng, 5),
        "scan_rows": _Sequence(rng, 5),
        "verify": _Sequence(rng, 5),
        "bound": _Sequence(rng, 4),
    }
    for i in range(1, count):
        kind = _SCAN_WIDE_CYCLE[(i - 1) % len(_SCAN_WIDE_CYCLE)]
        u = seqs[kind].next()
        if kind == "bound":
            theta = 10.0 ** (3.0 + 3.0 * u[0])
            side = "upper" if u[1] < 0.5 else "lower"
            r = theta + (1 if side == "upper" else -1) * (0.5 + 5.5 * u[2]) * math.sqrt(theta)
            ops.append({
                "kind": "bound",
                "argv": ["bound", "--theta", repr(theta), "--r", repr(r), "--side", side, "--exact"],
                "threads": _threads(u[3], nproc),
                "theta": theta,
                "r": r,
                "side": side,
            })
            continue
        budget = _budget(u)
        eps_a, eps_r, _ = budget
        if kind == "verify":
            n = closed_form_n(*budget)
            lam = 10.0 ** (3.0 + 8.0 * u[3]) / n
            ops.append({
                "kind": "verify",
                "argv": ["verify", "--n", str(n), "--lambda", repr(lam)] + _budget_argv(budget),
                "threads": _threads(u[4], nproc),
                "budget": budget,
                "n": n,
                "lam": lam,
            })
            continue
        lam_max = 10.0 ** (2.0 + 4.0 * u[3]) * eps_a / eps_r
        argv = (["scan"] + _budget_argv(budget)
                + ["--lambda-max", repr(lam_max), "--grid-points", str(SCAN_POINTS)])
        if kind == "scan_csv":
            argv += ["--out", f"{TMP_DIR}/scan-{i:06d}.csv"]
        ops.append({
            "kind": "scan",
            "argv": argv,
            "threads": _threads(u[4], nproc),
            "budget": budget,
            "points": SCAN_POINTS,
            "sample_seed": rng.randrange(2**32),
        })
    return ops


_GENERATORS = {"plan-exact": _plan_exact, "verify-mc": _verify_mc, "scan-wide": _scan_wide}


def generate(workload: str, seed: int, count: int, nproc: int) -> list:
    """The first ``count`` ops of ``workload`` for ``seed``; same arguments, same ops."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, count, nproc)
