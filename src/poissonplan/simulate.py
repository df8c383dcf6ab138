"""Seeded Monte Carlo estimation of the mixed-tolerance coverage.

Each trial draws one K ~ Poisson(n*lam) - distributionally identical to
summing n Poisson(lam) samples - and scores a hit when K falls in the exact
integer window of the event, the same window the exact oracle integrates.

Streams are built on the counter-based Philox bit generator, whose raw
output is stable across platforms and numpy versions.  Trials are split
into fixed-size blocks, one spawned substream per block; the block size and
the per-block spawn are part of the pinned stream definition.  Variates
come from this module's own sampler rather than the numpy distribution
methods, whose streams may change between numpy releases: one inverse-cdf
lookup per draw, consuming exactly one uniform u and returning the smallest
k with cdf(k) > u.  The cdf table covers the exact module's certified span
theta -+ (10*sqrt(theta) + 35), outside which less than 1e-16 of the mass
lies on either side; its pmf is one run of the exact window kernel
(exact._run), and it is built once per mean.  Under that map a count lies
in the window [k_min, k_max] exactly when cdf(k_min - 1) <= u < cdf(k_max),
so simulate_coverage counts hits on the uniforms and draws no counts.
GENERATOR_ID keeps its name, guide inversion included: the streams and
the inverse-cdf map it was defined with are unchanged, and so is every
hit count.  The table is capped at TABLE_CAP entries (means up to about
2.7e9); larger means raise ResourceLimitError, which the command line
reports with exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .budget import ErrorBudget
from .errors import (
    ParameterError, ResourceLimitError, check_positive_int, check_positive_real, scaled
)
from .exact import THETA_MAX, _run, _span, coverage_window

TRIALS_CAP = 10**9
GENERATOR_ID = "philox4x64:block65536:guide-inversion:v2"
# Most cdf-table entries; bounds the table to about 8 MB.
TABLE_CAP = 2**20

_BLOCK = 65536


@dataclass(frozen=True)
class SimConfig:
    """One reproducible coverage simulation."""

    trials: int
    seed: int
    n: int
    lam: float
    budget: ErrorBudget

    def __post_init__(self):
        check_positive_int(self.trials, "trials")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ParameterError("seed", f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        check_positive_int(self.n, "n")
        check_positive_real(self.lam, "lam")


@dataclass(frozen=True)
class SimResult:
    """Hit count and coverage estimate with a 3-sigma binomial half-width."""

    trials: int
    hits: int
    estimate: float
    ci_half_width: float
    generator: str = GENERATOR_ID


def _table(theta: float) -> Tuple[int, np.ndarray]:
    """(first, cum): the cdf table of Poisson(theta) over its certified span.

    cum[j] is the cdf at count first + j, from the pmf of exact._run over
    the span: the saddle-point pmf at the in-span mode, extended by the
    ratio recurrence, as in the exact window kernel's sums.  It
    ends with an inf sentinel, so a lookup past the table's mass (below
    1e-16) returns the first count after the table.  Raises
    ResourceLimitError above TABLE_CAP entries, and for a theta past the
    exact kernel's domain (inf included).
    """
    lo, hi = _span(theta) if theta <= THETA_MAX else (0, TABLE_CAP)
    if hi - lo >= TABLE_CAP:
        raise ResourceLimitError(
            f"the sampler's cdf table at theta={theta!r} needs more than "
            f"TABLE_CAP = {TABLE_CAP} entries (theta above about 2.7e9)"
        )
    p0, down, up = _run(theta, lo, hi)
    pmf = p0 * np.concatenate((down[::-1], [1.0], up))
    cum = np.append(np.cumsum(pmf), np.inf)
    return lo, cum


def _hits(u: np.ndarray, first: int, cum: np.ndarray, k_min: int, k_max: int) -> int:
    """How many draws first + searchsorted(cum, u, "right") lie in [k_min, k_max], counted on u.

    The draw is K = first + (smallest j with cum[j] > u), so K <= k_max iff
    u < hi = cum[k_max - first] and K >= k_min iff lo = cum[k_min - first - 1]
    <= u.  A negative index stands for -inf (no count lies below first); an
    index past the table clips to its inf sentinel.
    """
    top = cum.size - 1
    lo = cum[min(k_min - first - 1, top)] if k_min > first else -np.inf
    hi = cum[min(k_max - first, top)] if k_max >= first else -np.inf
    return int(np.count_nonzero((lo <= u) & (u < hi)))


def simulate_coverage(cfg: SimConfig) -> SimResult:
    """Estimate the coverage probability by seeded Monte Carlo.

    Identical configs produce identical results.  Means n*lam whose cdf
    table exceeds TABLE_CAP entries, or that overflow a double, raise
    ResourceLimitError.
    """
    from numpy.random import Generator, Philox, SeedSequence  # only sampling needs numpy.random

    if cfg.trials > TRIALS_CAP:
        raise ResourceLimitError(
            f"trials={cfg.trials} exceeds the cap of {TRIALS_CAP}"
        )
    theta = scaled(cfg.n, cfg.lam)
    first, cum = _table(theta)  # refuses an over-cap mean before any other work
    k_min, k_max = coverage_window(cfg.n, cfg.lam, cfg.budget)

    n_blocks = (cfg.trials + _BLOCK - 1) // _BLOCK
    children = SeedSequence(cfg.seed).spawn(n_blocks)

    hits = 0
    for i, child in enumerate(children):
        u = Generator(Philox(child)).random(min(_BLOCK, cfg.trials - i * _BLOCK))
        hits += _hits(u, first, cum, k_min, k_max)

    estimate = hits / cfg.trials
    half_width = 3.0 * math.sqrt(estimate * (1.0 - estimate) / cfg.trials)
    return SimResult(trials=cfg.trials, hits=hits, estimate=estimate, ci_half_width=half_width)
