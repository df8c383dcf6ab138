"""Independent references the benchmark checks the program's outputs against.

Nothing here imports poissonplan.  The closed form is recomputed from the
paper's formula, coverage windows are resolved in exact rational arithmetic,
coverage probabilities come from scipy's regularized incomplete gamma
(``pdtr``/``pdtrc``, within 3e-15 relative of a 30-digit mpmath oracle on
windows up to theta = 1e11), and single tails from mpmath.  Both are
imported only when a check runs, so input generation stays cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Tolerance for comparing an exact probability with the reference.
ABS_TOL = 1e-12


def closed_form_rhs(eps_a: float, eps_r: float, delta: float) -> float:
    """(eps_r/eps_a) ln(2/delta) / ((1+eps_r) ln(1+eps_r) - eps_r)."""
    return (eps_r / eps_a) * math.log(2.0 / delta) / ((1.0 + eps_r) * math.log1p(eps_r) - eps_r)


def closed_form_n(eps_a: float, eps_r: float, delta: float) -> int:
    """Smallest integer strictly above the right-hand side, one higher on a near-tie."""
    rhs = closed_form_rhs(eps_a, eps_r, delta)
    n = math.floor(rhs) + 1
    if n - rhs <= 1e-9 * max(1.0, rhs):
        n += 1
    return n


def window(n: int, lam: float, eps_a: float, eps_r: float) -> tuple:
    """Integer counts K with |K/n - lam| < max(eps_a, eps_r*lam), strict, exact."""
    lam_q = Fraction(lam)
    w = max(Fraction(eps_a), Fraction(eps_r) * lam_q)
    return max(0, math.floor(n * (lam_q - w)) + 1), math.ceil(n * (lam_q + w)) - 1


def window_mass(theta: float, k_min: int, k_max: int) -> float:
    """Pr{k_min <= K <= k_max} for K ~ Poisson(theta)."""
    from scipy.special import pdtr, pdtrc

    if k_max < k_min:
        return 0.0
    if k_min == 0:
        return float(pdtr(k_max, theta))
    # A difference of upper tails keeps the absolute error near 1e-16.
    return float(pdtrc(k_min - 1, theta) - pdtrc(k_max, theta))


def coverage(n: int, lam: float, eps_a: float, eps_r: float) -> float:
    """Exact coverage of the mixed-tolerance event at one (n, lam)."""
    k_min, k_max = window(n, lam, eps_a, eps_r)
    return window_mass(n * lam, k_min, k_max)


def tail(theta: float, r: float, side: str) -> float:
    """Pr{K >= r} (side "upper", r > theta) or Pr{K <= r} (side "lower", r < theta), non-strict.

    From mpmath's regularized incomplete gamma at 30 digits, in the form
    whose expansion converges on that side of the mean.  scipy's pdtrc is
    not used here: near theta = 1e6 it can be off by 1e-5 relative in the
    far upper tail.
    """
    import mpmath

    with mpmath.workdps(30):
        th = mpmath.mpf(theta)
        if side == "upper":
            return float(mpmath.gammainc(math.ceil(r), 0, th, regularized=True))
        return float(mpmath.gammainc(math.floor(r) + 1, th, mpmath.inf, regularized=True))


def chernoff_bound(theta: float, r: float) -> float:
    """e^{-theta} (theta e / r)^r."""
    return math.exp((r - theta) - r * math.log1p((r - theta) / theta))


def default_grid_anchors(eps_a: float, eps_r: float) -> tuple:
    """The means the documented default scan grid always contains.

    Its two ends, eps_a/100 and 100*eps_a/eps_r, and the regime boundaries
    eps_a and eps_a/eps_r, each also perturbed by -+1e-6 relative.
    """
    rel = eps_a / eps_r
    points = [eps_a / 100.0, 100.0 * rel]
    for b in (eps_a, rel):
        points += [b * (1.0 - 1e-6), b, b * (1.0 + 1e-6)]
    return tuple(points)
