"""High-precision reference implementations, independent of the package.

Everything here except ``mass_exactish`` is computed with mpmath at 60
significant digits, taking the *exact* rational value of each binary double
input, so disagreements with the package are genuine implementation error
rather than input rounding.
"""

import math
from fractions import Fraction

import mpmath
from mpmath import mp

from poissonplan import poisson_pmf

mp.dps = 60


def mpf_of(x):
    """The exact value of a float as an mpmath number."""
    if isinstance(x, int):
        return mpmath.mpf(x)
    fr = Fraction(x)
    return mpmath.mpf(fr.numerator) / mpmath.mpf(fr.denominator)


def g_ref(eps, lam):
    """eps + (lam+eps)*ln(lam/(lam+eps)) at high precision."""
    e, l = mpf_of(eps), mpf_of(lam)
    return e + (l + e) * mpmath.log(l / (l + e))


def chernoff_ref(theta, r):
    """e^{-theta} (theta*e/r)^r at high precision (r = 0 gives e^{-theta})."""
    t, rr = mpf_of(theta), mpf_of(r)
    if rr == 0:
        return mpmath.exp(-t)
    return mpmath.exp(-t + rr - rr * mpmath.log(rr / t))


def pmf_ref(theta, k):
    t = mpf_of(theta)
    return mpmath.exp(-t + k * mpmath.log(t) - mpmath.loggamma(k + 1))


def cdf_ref(theta, k):
    if k < 0:
        return mpmath.mpf(0)
    return mpmath.fsum(pmf_ref(theta, i) for i in range(0, int(k) + 1))


def cdf_gamma_ref(theta, k):
    """Pr{K <= k} as the regularized upper incomplete gamma Q(k+1, theta).

    Independent of pmf summation, and fast at means where summing from 0
    at 60 digits is not.
    """
    return mpmath.gammainc(k + 1, mpf_of(theta), mpmath.inf, regularized=True)


def mass_exactish(theta, lo, hi):
    """math.fsum of the package's saddle-point pmf over [lo, hi], one term per count.

    The per-term route that the recurrence kernel replaced, kept as its
    double-precision oracle at means where 60-digit summation is slow.
    """
    if hi < lo:
        return 0.0
    return math.fsum(poisson_pmf(theta, i) for i in range(lo, hi + 1))


def tail_ref(theta, r, side):
    """Pr{K >= r} or Pr{K <= r} at high precision (non-strict)."""
    if side == "geq":
        return 1 - cdf_ref(theta, math.ceil(r) - 1)
    return cdf_ref(theta, math.floor(r))


def window_ref(n, lam, eps_a, eps_r):
    """Integer window of |K/n - lam| < max(eps_a, eps_r*lam), strict, exact."""
    lam_q = Fraction(lam)
    w = max(Fraction(eps_a), Fraction(eps_r) * lam_q)
    k_min = max(0, math.floor(n * (lam_q - w)) + 1)
    k_max = math.ceil(n * (lam_q + w)) - 1
    return k_min, k_max


def coverage_ref(n, lam, eps_a, eps_r):
    k_min, k_max = window_ref(n, lam, eps_a, eps_r)
    if k_max < k_min:
        return mpmath.mpf(0)
    return mpmath.fsum(pmf_ref(n * lam, k) for k in range(k_min, k_max + 1))


def normal_quantile_ref(p):
    return mpmath.sqrt(2) * mpmath.erfinv(2 * mpf_of(p) - 1)
