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
(exact._run), and it is built once per mean.  A guide index over u
finds each count in about one step.  A scalar draw is the same lookup as a
block of one.  The table is capped at TABLE_CAP entries (means up to about
2.7e9); larger means raise ResourceLimitError, which the command line
reports with exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .budget import ErrorBudget
from .errors import (
    ParameterError, ResourceLimitError, check_positive_int, check_positive_real, scaled
)
from .exact import THETA_MAX, _run, _span, coverage_window

TRIALS_CAP = 10**9
GENERATOR_ID = "philox4x64:block65536:guide-inversion:v2"
# Most cdf-table entries; bounds the table and its guide index to about 24 MB.
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


@lru_cache(maxsize=1)
def _table(theta: float) -> Tuple[int, np.ndarray, np.ndarray]:
    """(first, cum, guide): the cdf table of Poisson(theta) over its certified span.

    cum[j] is the cdf at count first + j, from the pmf of exact._run over
    the span: the saddle-point pmf at the in-span mode, extended by the
    ratio recurrence, as in the exact window kernel's sums.  It
    ends with an inf sentinel, so a lookup past the table's mass (below
    1e-16) returns the first count after the table.  guide[c] is the number
    of entries <= c/len(guide); its length is a power of two, so
    c = floor(u*len(guide)) is exact and guide[c] never passes the answer
    for u.  Raises ResourceLimitError above TABLE_CAP entries, and for a
    theta past the exact kernel's domain (inf included).
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
    m = 1 << (4 * (hi - lo) + 3).bit_length()  # a power of two >= 4 * table entries
    guide = np.searchsorted(cum, np.arange(m) / m, side="right").astype(np.int32)
    cum.flags.writeable = False
    guide.flags.writeable = False
    return lo, cum, guide


def _lookup(cum: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest index j with cum[j] > u, element-wise; equals searchsorted(cum, u, "right").

    The guide starts each search at or below its answer; two vectorized
    steps finish nearly all of them and searchsorted finishes the rest.
    """
    j = guide[(u * guide.size).astype(np.intp)].astype(np.intp)
    for _ in range(2):
        j += cum[j] <= u
    late = cum[j] <= u
    if late.any():
        j[late] = np.searchsorted(cum, u[late], side="right")
    return j


def _sample_poisson_block(theta: float, rng: Generator, size: int) -> np.ndarray:
    """``size`` Poisson(theta) draws as int64, one uniform each."""
    first, cum, guide = _table(theta)
    return _lookup(cum, guide, rng.random(size)) + first


def poisson_sampler(theta: float, stream: Generator) -> int:
    """One exact Poisson(theta) variate from ``stream``.

    Consumes one uniform and returns the same count as a block of one from
    the sampler ``simulate_coverage`` uses, so the draw is a pure function
    of the stream state.  Means whose cdf table exceeds TABLE_CAP entries
    (above about 2.7e9) raise ResourceLimitError.
    """
    first, cum, guide = _table(check_positive_real(theta, "theta"))
    u = stream.random()
    j = int(guide[int(u * guide.size)])
    if cum[j] <= u:  # a cdf value lies between the guide cell's start and u
        j = int(np.searchsorted(cum, u, side="right"))
    return first + j


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
    _table(theta)  # refuse an over-cap mean before any other work
    k_min, k_max = coverage_window(cfg.n, cfg.lam, cfg.budget)
    # Counts are int64; clamp an astronomically wide window without changing the event.
    k_max = min(k_max, 2**62)

    n_blocks = (cfg.trials + _BLOCK - 1) // _BLOCK
    children = SeedSequence(cfg.seed).spawn(n_blocks)

    hits = 0
    for i, child in enumerate(children):
        size = min(_BLOCK, cfg.trials - i * _BLOCK)
        ks = _sample_poisson_block(theta, Generator(Philox(child)), size)
        hits += int(np.count_nonzero((ks >= k_min) & (ks <= k_max)))

    estimate = hits / cfg.trials
    half_width = 3.0 * math.sqrt(estimate * (1.0 - estimate) / cfg.trials)
    return SimResult(trials=cfg.trials, hits=hits, estimate=estimate, ci_half_width=half_width)
