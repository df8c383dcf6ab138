"""Seeded Monte Carlo estimation of the mixed-tolerance coverage.

Each trial draws one K ~ Poisson(n*lam) - distributionally identical to
summing n Poisson(lam) samples - and scores a hit when K falls in the exact
integer window of the event, the same window the exact oracle integrates.

Streams are built on the counter-based Philox bit generator, whose raw
output is stable across platforms and numpy versions.  Trials are split
into fixed-size blocks, one spawned substream per block; the block size and
the per-block spawn are part of the pinned stream definition.  Each trial
takes one raw 64-bit word r of its block's Philox stream, and this module,
not numpy's distribution methods, maps it to a count: the uniform
u = (r >> 11) * 2^-53 (the map numpy's Generator.random applies to Philox),
then one inverse-cdf lookup, the smallest k with cdf(k) > u.  The cdf table
covers the exact module's certified span theta -+ (10*sqrt(theta) + 35),
outside which less than 1e-16 of the mass lies on either side; its pmf is
one run of the exact window kernel (exact._run), and it is built once per
mean.  Under that map a count lies in the window [k_min, k_max] exactly
when cdf(k_min - 1) <= u < cdf(k_max), and a cdf value x bounds u from
below exactly where the word reaches B(x) = ceil(x * 2^53) << 11, clamped
to [0, 2^64]: u >= x iff r >= B(x).  So simulate_coverage turns the
window's two cdf values into words once per call and counts hits on the
raw words, with no uniform or count formed.  Every call draws all its
blocks, also for a window that holds every word or none, so that its cost
depends on the trial count alone.  B is part of the stream definition.
GENERATOR_ID keeps its name, guide inversion included: the streams and the
inverse-cdf map it was defined with are unchanged, and so is every hit
count.  The table is capped at TABLE_CAP entries (means up to about 2.7e9);
larger means raise ResourceLimitError, which the command line reports with
exit code 2.
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


def _word(x: float) -> int:
    """B(x) = ceil(x * 2^53) << 11, clamped to 2^64: the least word whose uniform is >= x.

    For a cdf value x >= 0 (the inf sentinel included) and a word r,
    (r >> 11) * 2^-53 >= x iff (r >> 11) >= ceil(x * 2^53) iff r >= B(x);
    x * 2^53 is exact for every double below 1.  B(x) = 2^64, past every
    word, where no uniform reaches x (x > 1 - 2^-53).
    """
    return math.ceil(min(x, 1.0) * 2.0**53) << 11


def _word_range(first: int, cum: np.ndarray, k_min: int, k_max: int) -> Tuple[int, int]:
    """(start, width): the words r whose draw lies in [k_min, k_max], start <= r < start + width.

    The draw on the word's uniform u is first + searchsorted(cum, u, "right"),
    the count K = first + (smallest j with cum[j] > u), so K <= k_max iff
    u < cum[k_max - first] and K >= k_min iff cum[k_min - first - 1] <= u;
    _word turns each cdf value into a word.  A negative index stands for
    word 0 (no count lies below first); an index past the table clips to
    its inf sentinel, word 2^64.  width <= 0 holds no word, 2^64 every one.
    """
    top = cum.size - 1
    start = _word(cum[min(k_min - first - 1, top)]) if k_min > first else 0
    end = _word(cum[min(k_max - first, top)]) if k_max >= first else 0
    return start, end - start


def _hits(r: np.ndarray, start: int, width: int) -> int:
    """How many raw words of r lie in [start, start + width); r is overwritten.

    One unsigned test per word, (r - start) mod 2^64 < width, done in place;
    width 2^64 counts every word and width <= 0 none.  With (start, width)
    from _word_range, this counts the words whose inverse-cdf draw lies in
    the window, without forming a uniform or a count; the word bound B of
    _word is part of the stream definition.
    """
    if width >= 2**64:  # every word: 2^64 itself is no uint64
        return r.size
    if width <= 0:
        return 0
    np.subtract(r, np.uint64(start), out=r)
    return int(np.count_nonzero(r < np.uint64(width)))


def simulate_coverage(cfg: SimConfig) -> SimResult:
    """Estimate the coverage probability by seeded Monte Carlo.

    Identical configs produce identical results.  Means n*lam whose cdf
    table exceeds TABLE_CAP entries, or that overflow a double, raise
    ResourceLimitError.
    """
    from numpy.random import Philox, SeedSequence  # only sampling needs numpy.random

    if cfg.trials > TRIALS_CAP:
        raise ResourceLimitError(
            f"trials={cfg.trials} exceeds the cap of {TRIALS_CAP}", "trials"
        )
    theta = scaled(cfg.n, cfg.lam)
    first, cum = _table(theta)  # refuses an over-cap mean before any other work
    start, width = _word_range(first, cum, *coverage_window(cfg.n, cfg.lam, cfg.budget))

    n_blocks = (cfg.trials + _BLOCK - 1) // _BLOCK
    children = SeedSequence(cfg.seed).spawn(n_blocks)

    hits = 0
    for i, child in enumerate(children):
        r = Philox(child).random_raw(min(_BLOCK, cfg.trials - i * _BLOCK))
        hits += _hits(r, start, width)

    estimate = hits / cfg.trials
    half_width = 3.0 * math.sqrt(estimate * (1.0 - estimate) / cfg.trials)
    return SimResult(trials=cfg.trials, hits=hits, estimate=estimate, ci_half_width=half_width)
