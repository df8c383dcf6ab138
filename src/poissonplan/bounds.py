"""Chernoff tail bounds for Poisson variables and the empirical mean.

Everything here reduces to one exponent, the per-sample log of the optimized
Chernoff bound on a deviation eps from a Poisson mean lam,

    g(eps, lam) = eps + (lam + eps) * ln(lam / (lam + eps)) = eps * phi(eps/lam),
    phi(u) = h(u)/u,   h(u) = u - (1 + u) * log1p(u),

which is <= 0, with equality only at eps = 0.  For K ~ Poisson(theta) and
u = (r - theta)/theta, both Pr{K >= r} (r > theta) and Pr{K <= r} (0 < r <
theta) are at most exp((r - theta) * phi(u)) = e^{-theta} (theta*e/r)^r.
_phi is the one evaluation of the exponent, also for exact.py's pmf and
plan.py's critical exponent; each caller multiplies it by a deviation exact
in its inputs.  All public bounds are evaluated in log space, so they neither
overflow nor lose the exponent for large sample sizes.
"""

from __future__ import annotations

import math

from .errors import (
    ParameterError, check_positive_int, check_positive_real, check_unit_interval, scaled
)

_SIDES = ("lower", "upper")


def _phi(u: float) -> float:
    """h(u)/u for u > -1 within a few ulps: about -u/2 near 0, in (-709, 1) for finite u.

    Below |u| = 0.25, Loader's series from log1p(u) = 2*atanh(v), v = u/(2+u),
    t = v^2 <= 1/49: -v*(1 + v*(1+v)*(1/3 + t/5 + ... + t^8/19)), off by under
    1e-17.  Above, 1 - ((1+u)/u)*log1p(u) cancels at most about three bits.
    """
    if -0.25 < u < 0.25:
        v = u / (2.0 + u)
        t = v * v
        s = 1/3 + t*(1/5 + t*(1/7 + t*(1/9 + t*(1/11 + t*(1/13 + t*(1/15 + t*(1/17 + t/19)))))))
        return -v * (1.0 + v * (1.0 + v) * s)
    return 1.0 - (1.0 + u) / u * math.log1p(u)


def _h(u: float) -> float:
    """u - (1+u)*log1p(u) for u > -1; <= 0 with equality iff u == 0."""
    return u * _phi(u)


def g_exponent(epsilon: float, lam: float) -> float:
    """The exponent g(epsilon, lam) = epsilon + (lam+epsilon)*ln(lam/(lam+epsilon)).

    Requires a finite lam > 0 and a finite epsilon with lam + epsilon > 0
    (argument of the logarithm).  Past epsilon/lam = 1e300 the value is
    chernoff_log_bound(lam, lam + epsilon), the same exponent in direct form.
    """
    check_positive_real(lam, "lam")
    if not (math.isfinite(epsilon) and lam + epsilon > 0.0):
        raise ParameterError(
            "epsilon",
            f"epsilon must be finite with lam + epsilon > 0, got lam={lam!r} epsilon={epsilon!r}",
        )
    u = epsilon / lam
    if u > 1e300:
        return chernoff_log_bound(lam, lam + epsilon)
    return epsilon * _phi(u)


def chernoff_log_bound(theta: float, r: float) -> float:
    """log of e^{-theta} (theta*e/r)^r = -theta + r - r*ln(r/theta).

    Defined for finite r >= 0; the r = 0 value is the continuous limit -theta.
    No tail-side precondition is checked here: the value only *bounds* a
    tail probability on the sides enforced by the public functions.

    Evaluated as (r - theta)*_phi(u), u = (r - theta)/theta, which keeps full
    accuracy for r near theta, except where u passes 1e300 (it may reach inf,
    where _phi is nan) or rounds to -1 (r/theta below the double range);
    there the direct form r - theta - r*(ln r - ln theta) stays finite.
    """
    check_positive_real(theta, "theta")
    if not 0.0 <= r < math.inf:
        raise ParameterError("r", f"r must be finite and >= 0, got {r!r}")
    if r == 0.0:
        return -theta
    u = (r - theta) / theta
    if not -1.0 < u <= 1e300:
        return r - theta - r * (math.log(r) - math.log(theta))
    return (r - theta) * _phi(u)


def chernoff_upper_tail(theta: float, r: float) -> float:
    """Bound on Pr{K >= r} for K ~ Poisson(theta); valid only for r > theta.

    As r decreases to theta the true bound approaches 1 from below; in
    double precision the result rounds to exactly 1.0 once the exponent
    drops below resolution.
    """
    log_bound = chernoff_log_bound(theta, r)  # checks theta, then r, before the side
    if not r > theta:
        raise ParameterError(
            "r", f"upper-tail bound requires r > theta, got r={r!r} theta={theta!r}"
        )
    return math.exp(log_bound)


def chernoff_lower_tail(theta: float, r: float) -> float:
    """Bound on Pr{K <= r} for K ~ Poisson(theta); valid for 0 <= r < theta.

    r = 0 returns e^{-theta}, the continuous limit of the bound, which is
    also exactly Pr{K = 0}.
    """
    log_bound = chernoff_log_bound(theta, r)  # checks theta, then r, before the side
    if not r < theta:
        raise ParameterError(
            "r", f"lower-tail bound requires 0 <= r < theta, got r={r!r} theta={theta!r}"
        )
    return math.exp(log_bound)


def tail_bound_abs(n: int, lam: float, epsilon: float, side: str) -> float:
    """Bound on an absolute deviation of the empirical mean of n samples.

    side="lower": Pr{mean <= lam - epsilon} <= exp(n * g(-epsilon, lam)),
                  requires lam > epsilon.
    side="upper": Pr{mean >= lam + epsilon} <= exp(n * g(epsilon, lam)).
    lam and epsilon are finite and > 0.
    """
    check_positive_int(n, "n")
    check_positive_real(lam, "lam")
    check_positive_real(epsilon, "epsilon")
    if side not in _SIDES:
        raise ParameterError("side", f"side must be one of {_SIDES}, got {side!r}")
    if side == "lower":
        if not lam > epsilon:
            raise ParameterError(
                "epsilon", f"lower bound needs lam > epsilon, got lam={lam!r} epsilon={epsilon!r}"
            )
        return math.exp(scaled(n, g_exponent(-epsilon, lam)))
    return math.exp(scaled(n, g_exponent(epsilon, lam)))


def tail_bound_rel(n: int, lam: float, epsilon: float, side: str) -> float:
    """Bound on a relative deviation of the empirical mean of n samples.

    side="lower": Pr{mean <= lam*(1-epsilon)} <= exp(n*lam*(-eps - (1-eps)ln(1-eps))),
                  requires 0 < epsilon < 1.
    side="upper": Pr{mean >= lam*(1+epsilon)} <= exp(n*lam*(eps - (1+eps)ln(1+eps))),
                  requires a finite epsilon > 0.

    Both exponents are g(+-epsilon*lam, lam) = lam * h(+-epsilon): linear in
    lam with a strictly negative coefficient.  The product is formed as
    n * (lam * h), so an h that underflows to -0 gives 1.0, not nan.
    """
    check_positive_int(n, "n")
    check_positive_real(lam, "lam")
    if side not in _SIDES:
        raise ParameterError("side", f"side must be one of {_SIDES}, got {side!r}")
    if side == "lower":
        return math.exp(scaled(n, lam * _h(-check_unit_interval(epsilon, "epsilon"))))
    return math.exp(scaled(n, lam * _h(check_positive_real(epsilon, "epsilon"))))
