"""Exact Poisson probabilities: pmf, cdf, tails, and coverage of the mixed event.

This module is the ground truth the bounds are verified against, so the pmf
is computed in the saddle-point form used by R's dpois (Loader's algorithm):

    pmf(k; theta) = exp(-stirlerr(k) - bd0(k, theta)) / sqrt(2*pi*k)

where stirlerr(k) = lgamma(k+1) - (k+0.5)ln k + k - ln sqrt(2*pi) and
bd0(k, theta) = k*ln(k/theta) + theta - k = -theta*h(u), u = (k - theta)/theta,
is minus the Chernoff exponent of bounds.py, evaluated as -(k - theta)*_phi(u)
through bounds._phi, which has no cancellation near k = theta.  Unlike
exp(-theta + k*ln(theta) - lgamma(k+1)), no large terms are differenced:
against mpmath the relative error is under 1e-13 at counts 3 to 12 sd from
the mode up to theta = 1e11, and under 1e-13 + 5e-15*|ln pmf| deeper.

Series over k are truncated to the certified span of _span,
theta -+ (10*sqrt(theta) + 35), outside which the Chernoff bound
e^{-theta} (theta*e/r)^r leaves less than 1e-16 of mass on each side.
Coverage windows, the cdf and the single tails take one kernel, which sums
the shorter side: a window that holds the mode and has more terms than its
complement in the span is 1 - (that complement), else the window itself.
Each side is summed in pieces of at most 65,536 terms, each one run of
_run (the sampler's cdf table is one more): a saddle-point anchor at its
mode-nearest count, extended by the ratio recurrence pmf(k+1) =
pmf(k)*theta/(k+1).  The drift is at most 65,536 * 1e-16 relative per
piece plus the certified mass beyond the span, memory does not grow with
theta, and a window covering the span is exactly 1.0 and sums nothing.

Window endpoints are exact: each double is split into its integer ratio and
n*(lam -+ w) is floored or ceiled by integer division, so a count landing
exactly on an endpoint is excluded as the strict inequality demands.

Domain: the window kernel, and with it the cdf and the tails, accepts
theta <= 2^53 (THETA_MAX) and sums at most TERM_CAP = 2^26 terms per side,
which a half-tail reaches near theta = 4.5e13.  Beyond either limit it
raises ResourceLimitError rather than allocate or run without bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bounds import _phi
from .budget import CaseLabel, ErrorBudget, _case, relative_binds
from .errors import (
    ParameterError, ResourceLimitError, check_positive_int, check_positive_real, scaled
)

_LN_SQRT_2PI = 0.9189385332046727
_LOG_CUT = math.log(1e-16)  # certified-negligible tail mass, in log space

# Domain of the window kernel: above 2^53 consecutive counts are no longer
# distinct doubles.
THETA_MAX = 2.0**53
# Most terms one side of a window sum may take (a half-tail near theta =
# 4.5e13); more raise ResourceLimitError instead of running for minutes.
TERM_CAP = 2**26
_BLOCK = 65536  # terms per anchored piece of a long sum

# Stirling-series coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188.
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0


def _stirlerr(n: int) -> float:
    """lgamma(n+1) - ((n+0.5)*ln n - n + ln sqrt(2*pi)) for n >= 1."""
    if n < 16:
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = float(n) * float(n)
    if n > 500:
        return (_S0 - _S1 / nn) / n
    if n > 80:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _check_count(k) -> int:
    """int(k) for a finite integral k that is not a bool; else a ParameterError naming k."""
    if isinstance(k, bool) or not (isinstance(k, int) or math.isfinite(k) and k == int(k)):
        raise ParameterError("k", f"k must be an integer, got {k!r}")
    return int(k)


def poisson_pmf(theta: float, k: int) -> float:
    """Pr{K = k} for K ~ Poisson(theta), k >= 0; bd0 is -(k - theta)*_phi((k - theta)/theta)."""
    check_positive_real(theta, "theta")
    k = _check_count(k)
    if k < 0:
        raise ParameterError("k", f"k must be >= 0, got {k!r}")
    if k == 0:
        return math.exp(-theta)
    d = scaled(k, 1.0) - theta
    u = d / theta
    if not -1.0 < u < math.inf:  # theta > 2^53*k underflows; k/theta = inf is subnormal
        return 0.0
    exponent = d * _phi(u) - _stirlerr(k)
    if exponent < -745.0:  # exp underflows; avoid raising on the sqrt scale
        return 0.0
    return math.exp(exponent) / math.sqrt(2.0 * math.pi * k)


def _span(theta: float) -> Tuple[int, int]:
    """(lc, uc): the counts outside which under 1e-16 of mass lies on each side.

    uc = int(theta + 10*sqrt(theta) + 35); lc = 0 while e^{-theta} >= 1e-16,
    else max(int(theta - 10*sqrt(theta) - 35), 0) + 1.  The Chernoff bound
    Pr{K >= r} or Pr{K <= r} <= exp(theta*h(u)), h(u) = u - (1+u)ln(1+u),
    u = (r - theta)/theta, certifies both, with d = |r - theta|:
    - above, d >= 10*sqrt(theta) + 34 and Bennett's -h(u) >= u^2/(2(1+u/3))
      give theta*h(u) <= -(100 theta + 680 sqrt(theta) + 1156) /
      (2 theta + (20 sqrt(theta) + 68)/3) < -50, term by term;
    - below, -h(u) >= u^2/2 on (-1, 0] gives -(10 sqrt(theta) + 35)^2/(2 theta)
      < -50, and a clamped lc = 1 leaves Pr{K = 0} = e^{-theta} < 1e-16;
    both below ln(1e-16) = -36.84.  theta must be finite.
    """
    spread = 10.0 * math.sqrt(theta)
    lc = 0 if theta <= -_LOG_CUT else max(int(theta - spread - 35.0), 0) + 1
    return lc, int(theta + spread + 35.0)


def poisson_cdf(theta: float, k: int) -> float:
    """Pr{K <= k} for K ~ Poisson(theta); k < 0 returns 0.

    The window [0, k] goes through the coverage kernel: clipped to the
    certified span, beyond which the neglected mass on either side is
    below 1e-16, and summed by its shorter side, so a k above the mode
    costs the upper tail beyond k.  The kernel's domain and term cap apply.
    """
    check_positive_real(theta, "theta")
    k = _check_count(k)
    if k < 0:
        return 0.0
    return _window_mass(theta, 0, k)


def exact_tail(theta: float, r: float, side: str) -> float:
    """Pr{K >= r} (side="geq") or Pr{K <= r} (side="leq"), non-strict.

    A tail that misses the mode is summed itself, anchored at its end
    nearest the mode, so deep tails keep full relative accuracy instead of
    cancelling against 1; a tail holding the mode and most of the span is
    1 minus the opposite tail.  Mass beyond the certified 1e-16 truncation
    point is dropped.  r must be finite.  The coverage kernel's domain and
    term cap apply.
    """
    check_positive_real(theta, "theta")
    if not math.isfinite(r):
        raise ParameterError("r", f"r must be finite, got {r!r}")
    if side == "geq":
        lo = max(0, math.ceil(r))
        return _window_mass(theta, lo, max(lo, _span(theta)[1]))
    if side == "leq":
        hi = math.floor(r)
        if hi < 0:
            return 0.0
        return _window_mass(theta, 0, hi)
    raise ParameterError("side", f"side must be 'geq' or 'leq', got {side!r}")


def _run(theta: float, lo: int, hi: int) -> Tuple[float, np.ndarray, np.ndarray]:
    """(p0, down, up): the pmf over a non-empty [lo, hi] as one anchored run.

    p0 = pmf(k0) at k0, the count of [lo, hi] nearest int(theta);
    up[j] = pmf(k0+1+j)/p0 and down[j] = pmf(k0-1-j)/p0 by the recurrence
    pmf(k+1) = pmf(k)*theta/(k+1), every ratio at most 1.
    """
    k0 = min(max(int(theta), lo), hi)
    up = np.cumprod(theta / np.arange(k0 + 1, hi + 1, dtype=np.float64))
    down = np.cumprod(np.arange(k0, lo, -1, dtype=np.float64) / theta)
    return poisson_pmf(theta, k0), down, up


def _anchored_sum(theta: float, lo: int, hi: int) -> float:
    """Sum of pmf over [lo, hi] (0.0 when empty); at most TERM_CAP terms.

    Fewer than 64 terms (where numpy's per-call overhead exceeds the sum)
    are one scalar recurrence from the in-range mode.  Longer ranges are
    consecutive pieces of _BLOCK terms, each its own _run, so a tail piece
    is anchored at its end nearest the mode and memory stays O(_BLOCK).
    Both add with math.fsum.  More than TERM_CAP terms raise
    ResourceLimitError before any is summed.
    """
    if hi < lo:
        return 0.0
    if hi - lo >= TERM_CAP:
        raise ResourceLimitError(
            f"the exact sum at theta={theta!r} has {hi - lo + 1} terms, "
            f"over the cap of {TERM_CAP}"
        )
    if hi - lo >= 64:
        pieces = []
        for start in range(lo, hi + 1, _BLOCK):
            p0, down, up = _run(theta, start, min(start + _BLOCK - 1, hi))
            pieces.append(p0 * (1.0 + float(up.sum()) + float(down.sum())))
        return math.fsum(pieces)
    k0 = min(max(int(theta), lo), hi)
    terms = [1.0]
    p = 1.0
    for k in range(k0 + 1, hi + 1):
        p *= theta / k
        terms.append(p)
    p = 1.0
    for k in range(k0, lo, -1):
        p *= k / theta
        terms.append(p)
    return poisson_pmf(theta, k0) * math.fsum(terms)


def _window_mass(theta: float, k_lo: int, k_hi: int) -> float:
    """Sum of pmf over the integer window [k_lo, k_hi], by its shorter side.

    The window is clipped to the certified span [lc, uc] of _span.  When
    the clipped window [lo, hi] holds the mode and has more terms than its
    complement in the span, the result is 1 - mass[lc, lo-1] -
    mass[hi+1, uc], exactly 1.0 when both pieces are empty; otherwise the
    window itself is summed.  Each side goes through _anchored_sum, whose
    term cap counts only the terms actually summed.

    Both routes leave out the same certified mass beyond the span, and no
    recurrence drifts by more than 65,536 * 1e-16 relative.  A window
    holding the mode and over half the span has mass near 1/2 or more, so
    the complement keeps the direct route's relative accuracy.
    """
    if k_hi < k_lo:
        return 0.0
    if not theta <= THETA_MAX:
        raise ResourceLimitError(
            f"theta={theta!r} is outside the exact kernel's domain theta <= 2^53"
        )
    lc, uc = _span(theta)
    lo, hi = max(k_lo, lc), min(k_hi, uc)
    if hi < lo:
        return 0.0  # window lies entirely in certified-negligible tails
    if lo <= int(theta) <= hi and (lo - lc) + (uc - hi) < hi - lo + 1:
        return 1.0 - _anchored_sum(theta, lc, lo - 1) - _anchored_sum(theta, hi + 1, uc)
    return min(_anchored_sum(theta, lo, hi), 1.0)


def _window_ratios(lam: float, budget: ErrorBudget, relative: bool) -> Tuple[int, int, int]:
    """Integers (lo, hi, den) with lam - w = lo/den and lam + w = hi/den exactly.

    w = max(epsilon_a, epsilon_r*lam): the relative width exactly when
    relative = relative_binds(lam, budget), the rule case_of labels by; the
    caller decides it once for both.  A non-finite lam raises (OverflowError
    for inf, ValueError for nan).
    """
    a, b = lam.as_integer_ratio()
    if relative:
        e, f = budget.epsilon_r.as_integer_ratio()
        return a * (f - e), a * (f + e), b * f
    c, d = budget.epsilon_a.as_integer_ratio()
    return a * d - c * b, a * d + c * b, b * d


def _window_at(n: int, ratios: Tuple[int, int, int]) -> Tuple[int, int]:
    """(k_min, k_max) of the strict window n*lo/den < K < n*hi/den, K >= 0."""
    lo, hi, den = ratios
    return max(0, n * lo // den + 1), -(-n * hi // den) - 1


def coverage_window(n: int, lam: float, budget: ErrorBudget) -> Tuple[int, int]:
    """Integer counts K satisfying |K/n - lam| < max(epsilon_a, epsilon_r*lam).

    Returns (k_min, k_max), possibly empty as k_min = k_max + 1.  Endpoints
    are resolved in exact integer arithmetic on the inputs' integer ratios
    (every finite double is a rational), so strict inequalities are honored
    even when n*(lam -+ w) lands exactly on an integer: such counts are
    excluded.
    """
    check_positive_int(n, "n")
    check_positive_real(lam, "lam")
    return _window_at(n, _window_ratios(lam, budget, relative_binds(lam, budget)))


@dataclass(frozen=True)
class CoveragePoint:
    """Exact coverage of the mixed-tolerance event at one (n, lam)."""

    lam: float
    n: int
    coverage: float
    k_min: int
    k_max: int
    case: CaseLabel


def exact_coverage(n: int, lam: float, budget: ErrorBudget) -> CoveragePoint:
    """Pr{ |K/n - lam| < epsilon_a  or  |K/n - lam| < epsilon_r*lam }, K ~ Poisson(n*lam).

    The union of the two strict events is the single window of half-width
    max(epsilon_a, epsilon_r*lam); the probability is the pmf mass over the
    integer window from coverage_window, i.e. cdf(k_max) - cdf(k_min - 1).
    A mean n*lam past the double range raises the kernel's ResourceLimitError.
    One relative_binds decision gives both the half-width and the case label.
    """
    check_positive_int(n, "n")
    check_positive_real(lam, "lam")
    relative = relative_binds(lam, budget)
    k_min, k_max = _window_at(n, _window_ratios(lam, budget, relative))
    coverage = _window_mass(scaled(n, lam), k_min, k_max)
    return CoveragePoint(
        lam=lam,
        n=n,
        coverage=coverage,
        k_min=k_min,
        k_max=k_max,
        case=_case(lam, budget, relative),
    )
