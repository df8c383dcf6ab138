"""Seeded Monte Carlo estimation of the mixed-tolerance coverage.

Each trial draws one K ~ Poisson(n*lam) - distributionally identical to
summing n Poisson(lam) samples - and scores a hit when K falls in the exact
integer window of the event, the same window the exact oracle integrates.

Streams are built on the counter-based Philox bit generator, whose raw
output is stable across platforms and numpy versions.  Trials are split
into fixed-size blocks, one spawned substream per block; the block size and
the per-block spawn are part of the pinned stream definition.  Variates
come from this module's own samplers (inverse-cdf search for means up to
30, Hormann's PTRS transformed rejection above) rather than the numpy
distribution methods, whose streams may change between numpy releases.
Means above 2^53, where draws would be quantized and overflow int64, raise
ResourceLimitError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .budget import ErrorBudget
from .errors import ParameterError, ResourceLimitError, check_positive_int
from .exact import THETA_MAX, coverage_window

TRIALS_CAP = 10**9
GENERATOR_ID = "philox4x64:block65536:inv+ptrs:v1"

_BLOCK = 65536
_INVERSION_MAX_MEAN = 30.0


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
        if not self.lam > 0.0:
            raise ParameterError("lam", f"lam must be > 0, got {self.lam!r}")


@dataclass(frozen=True)
class SimResult:
    """Hit count and coverage estimate with a 3-sigma binomial half-width."""

    hits: int
    trials: int
    estimate: float
    ci_half_width: float
    generator: str = GENERATOR_ID


def _cdf_table(theta: float) -> np.ndarray:
    """Cumulative pmf table covering all but < 1e-15 of the mass."""
    terms = [math.exp(-theta)]
    total = terms[0]
    k = 0
    p = terms[0]
    k_cap = int(theta + 40.0 * math.sqrt(theta) + 60.0)
    while total < 1.0 - 1e-15 and k < k_cap:
        k += 1
        p *= theta / k
        terms.append(p)
        total += p
    return np.cumsum(np.asarray(terms))


def _sample_inversion_block(theta: float, rng: Generator, size: int) -> np.ndarray:
    """Inverse-cdf draws: smallest k with cdf(k) > u.

    The residual u beyond the table (< 1e-15 probability) maps to the first
    count past the table end.
    """
    cum = _cdf_table(theta)
    u = rng.random(size)
    return np.searchsorted(cum, u, side="right").astype(np.int64)


def _sample_ptrs_block(theta: float, rng: Generator, size: int) -> np.ndarray:
    """Hormann's PTRS transformed-rejection sampler, vectorized.

    Rejected slots redraw in subsequent passes; the uniform-consumption
    pattern is fixed by this implementation and deterministic per stream.
    """
    b = 0.931 + 2.53 * math.sqrt(theta)
    a = -0.059 + 0.02483 * b
    vr = 0.9277 - 3.6224 / (b - 2.0)
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    log_theta = math.log(theta)
    out = np.empty(size, dtype=np.int64)
    pending = np.arange(size)
    while pending.size:
        m = pending.size
        u = rng.random(m) - 0.5
        v = rng.random(m)
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.floor((2.0 * a / us + b) * u + theta + 0.43)
        # In the squeeze region (us >= 0.07) k is always finite and >= 0 for
        # means above the switch point, so accept and reject are disjoint.
        accept = (us >= 0.07) & (v <= vr)
        reject = ~np.isfinite(k) | (k < 0.0) | ((us < 0.013) & (v > us))
        needs_test = ~accept & ~reject
        if np.any(needs_test):
            kt = k[needs_test]
            ut = us[needs_test]
            lhs = np.log(v[needs_test] * inv_alpha / (a / (ut * ut) + b))
            rhs = kt * log_theta - theta - np.array(
                [math.lgamma(ki + 1.0) for ki in kt]
            )
            accept[np.flatnonzero(needs_test)[lhs <= rhs]] = True
        out[pending[accept]] = k[accept].astype(np.int64)
        pending = pending[~accept]
    return out


def _check_domain(theta: float) -> None:
    """Refuse means whose draws would be quantized (> 2^53) or overflow int64."""
    if not theta <= THETA_MAX:
        raise ResourceLimitError(
            f"theta={theta!r} is outside the samplers' domain theta <= 2^53"
        )


def _sample_poisson_block(theta: float, rng: Generator, size: int) -> np.ndarray:
    if theta <= _INVERSION_MAX_MEAN:
        return _sample_inversion_block(theta, rng, size)
    return _sample_ptrs_block(theta, rng, size)


def poisson_sampler(theta: float, stream: Generator) -> int:
    """One exact Poisson(theta) variate from ``stream``.

    A block of one from the samplers ``simulate_coverage`` uses (inversion
    for theta <= 30, PTRS transformed rejection above); both consume only
    uniforms, so the draw is a pure function of the stream state.  Means
    above 2^53 raise ResourceLimitError.
    """
    if not theta > 0.0:
        raise ParameterError("theta", f"theta must be > 0, got {theta!r}")
    _check_domain(theta)
    return int(_sample_poisson_block(theta, stream, 1)[0])


def simulate_coverage(cfg: SimConfig) -> SimResult:
    """Estimate the coverage probability by seeded Monte Carlo.

    Identical configs produce identical results.  Means n*lam above 2^53
    raise ResourceLimitError.
    """
    if cfg.trials > TRIALS_CAP:
        raise ResourceLimitError(
            f"trials={cfg.trials} exceeds the cap of {TRIALS_CAP}"
        )
    theta = cfg.n * cfg.lam
    _check_domain(theta)
    k_min, k_max = coverage_window(cfg.n, cfg.lam, cfg.budget)
    # Counts are sampled as int64; clamp the (possibly astronomically wide)
    # window accordingly without changing the event.
    lo = max(k_min, 0)
    hi = min(k_max, 2**62)

    n_blocks = (cfg.trials + _BLOCK - 1) // _BLOCK
    children = SeedSequence(cfg.seed).spawn(n_blocks)

    hits = 0
    for i, child in enumerate(children):
        size = min(_BLOCK, cfg.trials - i * _BLOCK)
        ks = _sample_poisson_block(theta, Generator(Philox(child)), size)
        hits += int(np.count_nonzero((ks >= lo) & (ks <= hi)))

    estimate = hits / cfg.trials
    half_width = 3.0 * math.sqrt(estimate * (1.0 - estimate) / cfg.trials)
    return SimResult(hits=hits, trials=cfg.trials, estimate=estimate, ci_half_width=half_width)
