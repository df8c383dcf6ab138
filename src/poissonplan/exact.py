"""Exact Poisson probabilities: pmf, cdf, tails, and coverage of the mixed event.

This module is the ground truth the bounds are verified against, so the pmf
is computed in the saddle-point form used by R's dpois (Loader's algorithm):

    pmf(k; theta) = exp(-stirlerr(k) - bd0(k, theta)) / sqrt(2*pi*k)

where stirlerr(k) = lgamma(k+1) - (k+0.5)ln k + k - ln sqrt(2*pi) and
bd0(k, theta) = k*ln(k/theta) + theta - k is evaluated by a cancellation-free
series when k is close to theta.  Unlike exp(-theta + k*ln(theta) -
lgamma(k+1)), no large terms are differenced, so the relative error stays
near machine precision even for theta in the hundreds of thousands.

Series over k are truncated only where this module's own Chernoff bound
certifies the neglected tail mass below 1e-16.  Coverage windows, the cdf
and the single tails take one kernel, which sums the shorter side: a window
that holds the mode and more than half of the certified span is
1 - (its complement in the span), else the window itself.  Each side is one
saddle-point anchor at its mode-nearest count, extended by the ratio
recurrence pmf(k+1) = pmf(k)*theta/(k+1), in blocks of at most 65,536
terms, so memory does not grow with theta.  The drift is at most
(terms on the shorter side) * 1e-16 plus the certified mass beyond the
cuts; a window spanning both cuts is exactly 1.0 and sums nothing.

Window endpoints are exact: each double is split into its integer ratio and
n*(lam -+ w) is floored or ceiled by integer division, so a count landing
exactly on an endpoint is excluded as the strict inequality demands.

Domain: the window kernel, and with it the cdf and the tails, accepts
theta <= 2^53 (THETA_MAX) and at most TERM_CAP = 2^26 terms after
clipping, which a window around the mean reaches near theta = 1.1e13.
Beyond either it raises ResourceLimitError rather than allocate or run
without bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bounds import chernoff_log_bound
from .budget import CaseLabel, ErrorBudget, case_of
from .errors import ParameterError, ResourceLimitError, check_positive_int, check_positive_real

_LN_SQRT_2PI = 0.9189385332046727
_LOG_CUT = math.log(1e-16)  # certified-negligible tail mass, in log space

# Domain of the window kernel: above 2^53 consecutive counts are no longer
# distinct doubles.
THETA_MAX = 2.0**53
# Most terms one window sum may take after clipping to the certified cuts
# (about theta = 1.1e13 for a window around the mean); wider raises
# ResourceLimitError instead of running for minutes.
TERM_CAP = 2**26
_BLOCK = 65536  # terms per cumulative-product block

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


def _bd0(x: float, mean: float) -> float:
    """x*ln(x/mean) + mean - x, evaluated without cancellation near x = mean."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        s = (x - mean) * v
        ej = 2.0 * x * v
        v2 = v * v
        j = 1
        while True:
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / mean) + mean - x


def _check_count(k) -> int:
    """int(k) for a finite integral k that is not a bool; else a ParameterError naming k."""
    if isinstance(k, bool) or not (isinstance(k, int) or math.isfinite(k) and k == int(k)):
        raise ParameterError("k", f"k must be an integer, got {k!r}")
    return int(k)


def poisson_pmf(theta: float, k: int) -> float:
    """Pr{K = k} for K ~ Poisson(theta), k >= 0."""
    check_positive_real(theta, "theta")
    k = _check_count(k)
    if k < 0:
        raise ParameterError("k", f"k must be >= 0, got {k!r}")
    if k == 0:
        return math.exp(-theta)
    exponent = -_stirlerr(k) - _bd0(float(k), theta)
    if exponent < -745.0:  # exp underflows; avoid raising on the sqrt scale
        return 0.0
    return math.exp(exponent) / math.sqrt(2.0 * math.pi * k)


def _cut_guesses(theta: float) -> Tuple[float, float]:
    """Starting points of the lower and upper cut searches, which only move outward."""
    spread = 10.0 * math.sqrt(theta)
    return theta - spread - 35.0, theta + spread + 35.0


def _upper_cut(theta: float) -> int:
    """Smallest practical m > theta with certified Pr{K >= m} < 1e-16."""
    m = int(_cut_guesses(theta)[1])
    while chernoff_log_bound(theta, float(m)) >= _LOG_CUT:
        m = int(1.25 * m) + 10
    return m


def _lower_cut(theta: float) -> int:
    """Largest m >= 0 with certified Pr{K <= m} < 1e-16, or -1 if none."""
    if -theta >= _LOG_CUT:  # even Pr{K = 0} = e^{-theta} is not negligible
        return -1
    m = int(_cut_guesses(theta)[0])
    while m > 0 and chernoff_log_bound(theta, float(m)) >= _LOG_CUT:
        m = int(0.8 * m) - 10
    return max(m, 0)


def poisson_cdf(theta: float, k: int) -> float:
    """Pr{K <= k} for K ~ Poisson(theta); k < 0 returns 0.

    The window [0, k] goes through the coverage kernel: clipped to the
    Chernoff-certified cuts beyond which the neglected mass on either side
    is below 1e-16 and summed by its shorter side, so a k above the mode
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
        return _window_mass(theta, lo, max(lo, _upper_cut(theta)))
    if side == "leq":
        hi = math.floor(r)
        if hi < 0:
            return 0.0
        return _window_mass(theta, 0, hi)
    raise ParameterError("side", f"side must be 'geq' or 'leq', got {side!r}")


def _ratio_sum(ratios: np.ndarray, carry: float) -> Tuple[float, float]:
    """Sum of the running products carry*r[0], carry*r[0]*r[1], ...; returns (sum, last)."""
    ratios[0] *= carry
    prods = np.cumprod(ratios)
    return float(prods.sum()), float(prods[-1])


def _anchored_sum(theta: float, lo: int, hi: int) -> float:
    """Sum of pmf over [lo, hi] (0.0 when empty), anchored at the in-range mode.

    The anchor is the count of [lo, hi] nearest int(theta), so a tail piece
    is anchored at its end nearest the mode and the ratio recurrence
    pmf(k+1) = pmf(k)*theta/(k+1) walks away from it over decaying terms: a
    scalar loop summed with math.fsum for fewer than 64 terms (where numpy's
    per-call overhead exceeds the sum), blocked cumulative products
    otherwise, so memory stays O(_BLOCK).
    """
    if hi < lo:
        return 0.0
    k0 = min(max(int(theta), lo), hi)
    p0 = poisson_pmf(theta, k0)
    if p0 == 0.0:
        return 0.0
    if hi - lo < 64:
        terms = [1.0]
        p = 1.0
        for k in range(k0 + 1, hi + 1):
            p *= theta / k
            terms.append(p)
        p = 1.0
        for k in range(k0, lo, -1):
            p *= k / theta
            terms.append(p)
        return p0 * math.fsum(terms)
    total = 1.0
    carry = 1.0
    for start in range(k0 + 1, hi + 1, _BLOCK):
        stop = min(start + _BLOCK, hi + 1)
        part, carry = _ratio_sum(theta / np.arange(start, stop, dtype=np.float64), carry)
        total += part
    carry = 1.0
    for start in range(k0, lo, -_BLOCK):
        stop = max(start - _BLOCK, lo)
        part, carry = _ratio_sum(np.arange(start, stop, -1, dtype=np.float64) / theta, carry)
        total += part
    return p0 * total


def _window_mass(theta: float, k_lo: int, k_hi: int) -> float:
    """Sum of pmf over the integer window [k_lo, k_hi], by its shorter side.

    The window is first clipped to the certified span [lc, uc], whose cuts
    leave out less than 1e-16 of mass on each side.  A cut is searched only
    when the window reaches its starting guess, because the search only
    moves outward from there, and at most once per call: the complement
    route reuses a cut the clip found.  The term cap applies to the clipped
    window.
    When the clipped window [lo, hi] holds the mode and has more terms than
    its complement in the span, the result is
    1 - mass[lc, lo-1] - mass[hi+1, uc], exactly 1.0 when both pieces are
    empty; otherwise the window itself is summed.  Both cuts are searched
    only for a window holding over half the span of the guesses: the cuts
    lie at or beyond their guesses, so, apart from a lower cut clamped at
    0, a narrower window cannot be the longer side.  Each side goes through
    _anchored_sum.

    Both routes leave out the same certified mass beyond the cuts, and the
    recurrence drifts by at most (terms summed) * 1e-16 in absolute terms,
    where the terms summed are the shorter side's.  A window that holds the
    mode and over half the span has mass near 1/2 or more, so the
    complement route keeps the relative accuracy of the direct one.  The
    tests cross-check both routes against the mpmath oracles.
    """
    if k_hi < k_lo:
        return 0.0
    if not theta <= THETA_MAX:
        raise ResourceLimitError(
            f"theta={theta!r} is outside the exact kernel's domain theta <= 2^53"
        )
    lo_guess, hi_guess = _cut_guesses(theta)
    lc = uc = None  # the certified span's ends, once searched
    if k_lo > 0 and k_lo > lo_guess:
        lo = k_lo
    else:
        lc = _lower_cut(theta) + 1
        lo = max(k_lo, lc)
    if k_hi <= hi_guess:
        hi = k_hi
    else:
        uc = _upper_cut(theta)
        hi = min(k_hi, uc)
    if hi < lo:
        return 0.0  # window lies entirely in certified-negligible tails
    if hi - lo >= TERM_CAP:
        raise ResourceLimitError(
            f"the exact window at theta={theta!r} has {hi - lo + 1} terms, "
            f"over the cap of {TERM_CAP}"
        )
    if 2 * (hi - lo + 1) > hi_guess - lo_guess and lo <= int(theta) <= hi:
        if lc is None:
            lc = _lower_cut(theta) + 1
        if uc is None:
            uc = _upper_cut(theta)
        if (lo - lc) + (uc - hi) < hi - lo + 1:
            return 1.0 - _anchored_sum(theta, lc, lo - 1) - _anchored_sum(theta, hi + 1, uc)
    return min(_anchored_sum(theta, lo, hi), 1.0)


def _mean(n: int, lam: float) -> float:
    """n*lam, or inf where the product overflows (n past the double range)."""
    try:
        return n * lam
    except OverflowError:
        return math.inf


def _window_ratios(lam: float, budget: ErrorBudget) -> Tuple[int, int, int]:
    """Integers (lo, hi, den) with lam - w = lo/den and lam + w = hi/den exactly.

    w = max(epsilon_a, epsilon_r*lam).  Every finite double is a dyadic
    rational, so the two candidates are compared by cross-multiplying their
    integer ratios and no rounding enters.  A non-finite lam raises
    (OverflowError for inf, ValueError for nan).
    """
    a, b = lam.as_integer_ratio()
    c, d = budget.epsilon_a.as_integer_ratio()
    e, f = budget.epsilon_r.as_integer_ratio()
    if c * f * b >= e * a * d:  # epsilon_a >= epsilon_r*lam: absolute half-width
        return a * d - c * b, a * d + c * b, b * d
    return a * (f - e), a * (f + e), b * f


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
    return _window_at(n, _window_ratios(lam, budget))


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
    """
    k_min, k_max = coverage_window(n, lam, budget)
    coverage = _window_mass(_mean(n, lam), k_min, k_max)
    return CoveragePoint(
        lam=lam,
        n=n,
        coverage=coverage,
        k_min=k_min,
        k_max=k_max,
        case=case_of(lam, budget),
    )
