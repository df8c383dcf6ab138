"""Output checks that do not trust the code under test.

Each check takes an op (from workloads.py) and the fields the worker
extracted from its report, and returns None when the output is right or a
one-line reason when it is not.  Expected values come from reference.py
and from the paper's guarantee: at n above the closed form, the coverage
is at least 1 - delta for every mean.
"""

from __future__ import annotations

import math

import reference
from reference import ABS_TOL
from workloads import CANONICAL

CANONICAL_EXACT_N = 381
# Regime boundaries +-1e-6 relative that every default-range grid contains.
_BOUNDARY_POINTS = 6


def _coverage_error(n: int, lam: float, budget: tuple, k_min: int, k_max: int, cov: float):
    eps_a, eps_r, _ = budget
    want = reference.window(n, lam, eps_a, eps_r)
    if (k_min, k_max) != want:
        return f"window at n={n} lam={lam!r} is [{k_min}, {k_max}], reference {list(want)}"
    ref = reference.window_mass(n * lam, *want)
    if abs(cov - ref) > ABS_TOL:
        return f"coverage at n={n} lam={lam!r} is {cov!r}, reference {ref!r}"
    return None


def _size(op: dict, out: dict):
    eps_a, eps_r, delta = budget = op["budget"]
    n = out["n"]
    if budget == CANONICAL and n != CANONICAL_EXACT_N:
        return f"canonical budget gave n={n}, expected {CANONICAL_EXACT_N}"
    limit = reference.closed_form_n(*budget)
    if not 1 <= n <= limit:
        return f"exact n={n} exceeds the closed form {limit}"
    for lam in reference.default_grid_anchors(eps_a, eps_r):
        cov = reference.coverage(n, lam, eps_a, eps_r)
        if cov < 1.0 - delta - ABS_TOL:
            return f"n={n} misses 1-delta at grid mean {lam!r}: reference coverage {cov!r}"
    return None


def _verify(op: dict, out: dict):
    n, lam, budget = op["n"], op["lam"], op["budget"]
    err = _coverage_error(n, lam, budget, out["k_min"], out["k_max"], out["coverage"])
    if err:
        return err
    if op["kind"] == "verify":  # n is the closed form: the guarantee applies
        if out["pass"] is not True:
            return f"closed-form n={n} fails at lam={lam!r}"
        return None
    mc, trials = out["mc"], op["trials"]
    if mc["trials"] != trials or mc["estimate"] != mc["hits"] / trials:
        return f"MC block inconsistent: {mc!r}"
    p = reference.coverage(n, lam, budget[0], budget[1])
    limit = 5.0 * math.sqrt(p * (1.0 - p) / trials) + 1.0 / trials
    if abs(mc["estimate"] - p) > limit:
        return f"MC estimate {mc['estimate']!r} is more than 5 sigma + 1/T from exact {p!r}"
    return None


def _scan(op: dict, out: dict):
    budget = op["budget"]
    n = out["n"]
    if not n > reference.closed_form_rhs(*budget):
        return f"scan n={n} is not above the closed form"
    rows = op["points"] + _BOUNDARY_POINTS
    if out["rows"] != rows or out["listed"] != rows:
        return f"scan reports {out['rows']} rows and lists {out['listed']}, grid has {rows}"
    if out["all_pass"] is not True or not out["min_margin"] >= 0.0:
        return f"guarantee violated at closed-form n={n}: min_margin {out['min_margin']!r}"
    for lam, k_min, k_max, cov in out["sample"]:
        err = _coverage_error(n, lam, budget, k_min, k_max, cov)
        if err:
            return err
    return None


def _bound(op: dict, out: dict):
    theta, r, side = op["theta"], op["r"], op["side"]
    ref = reference.tail(theta, r, side)
    if abs(out["exact"] - ref) > ABS_TOL:
        return f"exact {side} tail at theta={theta!r} r={r!r} is {out['exact']!r}, reference {ref!r}"
    bound = reference.chernoff_bound(theta, r)
    if abs(out["bound"] - bound) > 1e-9 * bound:
        return f"Chernoff bound {out['bound']!r}, reference {bound!r}"
    if out["exact"] > out["bound"]:
        return f"exact tail {out['exact']!r} exceeds its Chernoff bound {out['bound']!r}"
    return None


_CHECKS = {"size": _size, "verify": _verify, "verify_mc": _verify, "scan": _scan, "bound": _bound}


def check(op: dict, out: dict):
    """None if ``out`` is right for ``op``, else the reason it is not."""
    return _CHECKS[op["kind"]](op, out)
