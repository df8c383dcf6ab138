"""Chernoff tail bounds for Poisson variables and the empirical mean.

Everything here reduces to one exponent function

    g(eps, lam) = eps + (lam + eps) * ln(lam / (lam + eps)),

the per-sample log of the optimized Chernoff bound on a deviation of size
``eps`` from a Poisson mean ``lam``.  It is <= 0 everywhere, with equality
only at eps = 0.  Writing u = eps/lam gives g(eps, lam) = lam * h(u) with

    h(u) = u - (1 + u) * log1p(u),

which is also the log-bound per unit of mean for the tail of a single
Poisson variable: for Poisson(theta),

    Pr{K >= r} <= exp(theta * h((r - theta)/theta))   for r > theta,
    Pr{K <= r} <= exp(theta * h((r - theta)/theta))   for 0 < r < theta,

both equal to the classical e^{-theta} (theta*e/r)^r.  All public bounds
are evaluated in log space so they neither overflow nor lose the exponent
for large sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ParameterError, check_positive_int

_SIDES = ("lower", "upper")


def _h(u: float) -> float:
    """u - (1+u)*log1p(u) for u > -1; <= 0 with equality iff u == 0.

    Direct evaluation cancels to O(u^2) near zero, so below |u| < 1e-4 the
    series -(u^2/2 - u^3/6 + u^4/12 - u^5/20) is used; its truncation error
    there is below 1e-24 relative.
    """
    if abs(u) < 1e-4:
        return -u * u * (0.5 - u * (1.0 / 6.0 - u * (1.0 / 12.0 - u * 0.05)))
    return u - (1.0 + u) * math.log1p(u)


def g_exponent(epsilon: float, lam: float) -> float:
    """The exponent g(epsilon, lam) = epsilon + (lam+epsilon)*ln(lam/(lam+epsilon)).

    Requires lam > 0 and lam + epsilon > 0 (argument of the logarithm).
    """
    if not lam > 0.0:
        raise ParameterError("lam", f"lam must be > 0, got {lam!r}")
    if not lam + epsilon > 0.0:
        raise ParameterError(
            "epsilon", f"lam + epsilon must be > 0, got lam={lam!r} epsilon={epsilon!r}"
        )
    return lam * _h(epsilon / lam)


def chernoff_log_bound(theta: float, r: float) -> float:
    """log of e^{-theta} (theta*e/r)^r = -theta + r - r*ln(r/theta).

    Defined for r >= 0; the r = 0 value is the continuous limit -theta.
    No tail-side precondition is checked here: the value only *bounds* a
    tail probability on the sides enforced by the public functions.

    Evaluated as theta*h((r-theta)/theta), which keeps full accuracy for r
    near theta, except where that ratio overflows or rounds to -1 (r/theta
    beyond the double range either way); there the direct form
    r - theta - r*(ln r - ln theta) stays finite.
    """
    if not theta > 0.0:
        raise ParameterError("theta", f"theta must be > 0, got {theta!r}")
    if not r >= 0.0:
        raise ParameterError("r", f"r must be >= 0, got {r!r}")
    if r == 0.0:
        return -theta
    u = (r - theta) / theta
    if math.isinf(u) or u == -1.0:
        return r - theta - r * (math.log(r) - math.log(theta))
    return theta * _h(u)


def chernoff_upper_tail(theta: float, r: float) -> float:
    """Bound on Pr{K >= r} for K ~ Poisson(theta); valid only for r > theta.

    As r decreases to theta the true bound approaches 1 from below; in
    double precision the result rounds to exactly 1.0 once the exponent
    drops below resolution.
    """
    if not theta > 0.0:
        raise ParameterError("theta", f"theta must be > 0, got {theta!r}")
    if not r > theta:
        raise ParameterError(
            "r", f"upper-tail bound requires r > theta, got r={r!r} theta={theta!r}"
        )
    return math.exp(chernoff_log_bound(theta, r))


def chernoff_lower_tail(theta: float, r: float) -> float:
    """Bound on Pr{K <= r} for K ~ Poisson(theta); valid for 0 <= r < theta.

    r = 0 returns e^{-theta}, the continuous limit of the bound, which is
    also exactly Pr{K = 0}.
    """
    if not theta > 0.0:
        raise ParameterError("theta", f"theta must be > 0, got {theta!r}")
    if not 0.0 <= r < theta:
        raise ParameterError(
            "r", f"lower-tail bound requires 0 <= r < theta, got r={r!r} theta={theta!r}"
        )
    return math.exp(chernoff_log_bound(theta, r))


def tail_bound_abs(n: int, lam: float, epsilon: float, side: str) -> float:
    """Bound on an absolute deviation of the empirical mean of n samples.

    side="lower": Pr{mean <= lam - epsilon} <= exp(n * g(-epsilon, lam)),
                  requires lam > epsilon > 0.
    side="upper": Pr{mean >= lam + epsilon} <= exp(n * g(epsilon, lam)),
                  requires epsilon > 0.
    """
    check_positive_int(n, "n")
    if side not in _SIDES:
        raise ParameterError("side", f"side must be one of {_SIDES}, got {side!r}")
    if side == "lower":
        if not (lam > epsilon > 0.0):
            raise ParameterError(
                "epsilon",
                f"lower bound requires lam > epsilon > 0, got lam={lam!r} epsilon={epsilon!r}",
            )
        return math.exp(n * g_exponent(-epsilon, lam))
    if not epsilon > 0.0:
        raise ParameterError("epsilon", f"epsilon must be > 0, got {epsilon!r}")
    return math.exp(n * g_exponent(epsilon, lam))


def tail_bound_rel(n: int, lam: float, epsilon: float, side: str) -> float:
    """Bound on a relative deviation of the empirical mean of n samples.

    side="lower": Pr{mean <= lam*(1-epsilon)} <= exp(n*lam*(-eps - (1-eps)ln(1-eps))),
                  requires 0 < epsilon < 1.
    side="upper": Pr{mean >= lam*(1+epsilon)} <= exp(n*lam*(eps - (1+eps)ln(1+eps))),
                  requires epsilon > 0.

    Both exponents are g(+-epsilon*lam, lam) = lam * h(+-epsilon): linear in
    lam with a strictly negative coefficient.
    """
    check_positive_int(n, "n")
    if not lam > 0.0:
        raise ParameterError("lam", f"lam must be > 0, got {lam!r}")
    if side not in _SIDES:
        raise ParameterError("side", f"side must be one of {_SIDES}, got {side!r}")
    if side == "lower":
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(
                "epsilon", f"lower bound requires 0 < epsilon < 1, got {epsilon!r}"
            )
        return math.exp(n * lam * _h(-epsilon))
    if not epsilon > 0.0:
        raise ParameterError("epsilon", f"epsilon must be > 0, got {epsilon!r}")
    return math.exp(n * lam * _h(epsilon))


@dataclass(frozen=True)
class TailBoundReport:
    """A Chernoff bound value, optionally paired with the exact tail it bounds.

    ``exact <= bound`` is guaranteed whenever the bound's side precondition
    held; a report produced with a forced, out-of-precondition evaluation
    may violate it (the producer is expected to attach a warning).
    """

    bound: float
    side: str
    exact: Optional[float] = None
