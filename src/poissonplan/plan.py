"""Sample-size planning for estimating a Poisson mean.

The closed-form rule: n samples guarantee

    Pr{ |mean - lam| < epsilon_a  or  |mean - lam| < epsilon_r*lam } > 1 - delta

for every lam > 0 provided

    n > (epsilon_r/epsilon_a) * ln(2/delta) / ((1+epsilon_r)ln(1+epsilon_r) - epsilon_r).

Equivalently, in log space, n is sufficient iff n * g_c < ln(delta/2) where
g_c = g(epsilon_a, epsilon_a/epsilon_r) is the critical exponent at the
boundary between the absolute- and relative-tolerance regimes.

The closed form is conservative; ``min_sample_size_exact`` searches for the
smallest n whose *exact* coverage clears 1 - delta at every mean of an
explicit grid.  It scans n upward from 1 over the means nearest the regime
boundary first, so a failing n usually costs one window evaluation, and a
later mean the paper's Chernoff bounds certify costs none; SEARCH_CAP bounds
the scan.  ``normal_approx_sample_size`` is the normal-approximation baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Optional, Sequence

import numpy as np

from .bounds import _phi, chernoff_log_bound
from .budget import ErrorBudget
from .errors import (
    ParameterError,
    ResourceLimitError,
    check_positive_int,
    check_positive_real,
    check_unit_interval,
    scaled,
)
from .exact import (
    THETA_MAX, CoveragePoint, _span, _window_at, _window_mass, _window_ratios, exact_coverage
)

# Largest n the exact search tries.  The scan spends at least one window
# evaluation on every n below its answer, and the closed-form n grows like
# 1/epsilon_a, so without a cap a tiny epsilon_a runs for hours; past it the
# search raises ResourceLimitError.
SEARCH_CAP = 2**20
# Most log-spaced points lambda_grid builds; more raise ResourceLimitError
# before any allocation (each point costs 8 bytes and one exact evaluation).
GRID_CAP = 2**20
SCREEN_DELTA_MIN = 1e-9  # smallest delta the exact search screens at (min_sample_size_exact)
EXACT_DELTA_MIN = 1e-14  # smallest delta the exact search resolves (min_sample_size_exact)


@dataclass(frozen=True)
class PlanResult:
    """A computed sample size.

    n:                 the integer sample size.
    rhs:               real value of the sizing formula's right-hand side
                       (for the normal baseline: z^2*lam/epsilon_a^2).
    critical_exponent: g(epsilon_a, epsilon_a/epsilon_r); None for the
                       normal baseline, which has no relative tolerance.
    method:            "formula", "exact_search", or "normal_approx".
    """

    n: int
    rhs: float
    critical_exponent: Optional[float]
    method: str


def critical_exponent(budget: ErrorBudget) -> float:
    """g(epsilon_a, epsilon_a/epsilon_r) = epsilon_a * (h(epsilon_r)/epsilon_r), <= 0.

    Formed as epsilon_a * _phi(epsilon_r), without the ratio or h, so it is
    within a few ulps wherever _phi(epsilon_r) ~ -epsilon_r/2 and the product
    are normal doubles (epsilon_r above about 4.5e-308), and -0.0 only where
    the product underflows.
    """
    return budget.epsilon_a * _phi(budget.epsilon_r)


def formula_sample_size(budget: ErrorBudget) -> PlanResult:
    """Sample size from the closed-form rule: the smallest integer above the rhs.

    rhs = ln(2/delta)/-g_c with g_c = critical_exponent(budget), the rule
    in log space.  n is floor(rhs) + 1, so an rhs that is exactly an
    integer m gives m + 1, and one more where ``is_sufficient`` rejects
    that count.  The two round the same inequality differently and disagree
    only within a few ulps of an integer, where the larger n is kept; one
    step suffices below 2^52, and above it a double cannot tell n from n + 1.
    Raises ResourceLimitError where the rhs overflows a double (including
    where g_c rounds to -0.0).
    """
    g_c = critical_exponent(budget)
    rhs = math.log(2.0 / budget.delta) / -g_c if g_c else math.inf
    if not math.isfinite(rhs):
        raise ResourceLimitError(
            f"the closed-form n overflows for epsilon_a={budget.epsilon_a!r}, "
            f"epsilon_r={budget.epsilon_r!r} (critical exponent {g_c!r}), delta={budget.delta!r}"
        )
    n = math.floor(rhs) + 1
    if not is_sufficient(n, budget):
        n += 1
    return PlanResult(
        n=n,
        rhs=rhs,
        critical_exponent=g_c,
        method="formula",
    )


def is_sufficient(n: int, budget: ErrorBudget) -> bool:
    """True iff n samples meet the guarantee per the log-space threshold.

    Checks n * g_c < ln(delta/2), the exponential-threshold form of the
    closed-form rule; a delta whose half rounds to 0 raises ResourceLimitError.
    """
    check_positive_int(n, "n")
    return scaled(n, critical_exponent(budget)) < math.log(_half(budget.delta))


def _half(delta: float) -> float:
    """delta/2, or ResourceLimitError naming delta where it rounds to 0."""
    if not delta / 2.0:
        raise ResourceLimitError(f"delta={delta!r} is too small: delta/2 rounds to 0", "delta")
    return delta / 2.0


def lambda_grid(
    budget: ErrorBudget,
    lam_min: float,
    lam_max: float,
    points: int,
) -> tuple:
    """Log-spaced mean grid over [lam_min, lam_max], plus regime boundaries.

    The boundaries epsilon_a and epsilon_a/epsilon_r (and each perturbed by
    +-1e-6 relative) are added when they fall inside the range, so a scan
    always exercises the regime switches exactly and just off-exactly.
    More than GRID_CAP points raise ResourceLimitError.
    """
    check_positive_real(lam_max, "lam_max")
    check_positive_real(lam_min, "lam_min")
    if not lam_min <= lam_max:
        raise ParameterError("lam_min", f"need lam_min <= lam_max, got {lam_min!r}, {lam_max!r}")
    if check_positive_int(points, "points") > GRID_CAP:
        raise ResourceLimitError(f"points={points} exceeds GRID_CAP = {GRID_CAP}")
    base = np.geomspace(lam_min, lam_max, points).tolist()
    for b in (budget.epsilon_a, budget.rel_boundary):
        for lam in (b * (1.0 - 1e-6), b, b * (1.0 + 1e-6)):
            if lam_min <= lam <= lam_max:
                base.append(lam)
    return tuple(sorted(set(base)))


def default_lambda_grid(budget: ErrorBudget, points: int = 200) -> tuple:
    """The default scan grid: epsilon_a/100 up to 100*epsilon_a/epsilon_r.

    Spans all four tolerance regimes, including both boundaries and their
    +-1e-6 relative perturbations.
    """
    return lambda_grid(budget, budget.epsilon_a / 100.0, 100.0 * budget.rel_boundary, points)


def scan_coverage(
    n: int,
    budget: ErrorBudget,
    grid: Optional[Sequence[float]] = None,
) -> List[CoveragePoint]:
    """Exact coverage at each grid mean, in grid order."""
    lams = tuple(default_lambda_grid(budget) if grid is None else grid)
    return [exact_coverage(n, lam, budget) for lam in lams]


def min_sample_size_exact(
    budget: ErrorBudget,
    grid: Optional[Sequence[float]] = None,
) -> PlanResult:
    """Smallest n whose exact coverage reaches 1 - delta at every grid mean.

    Coverage oscillates with n (the feasible set can have holes just above
    its lower edge), so the search scans n upward from 1 and returns the
    first fully feasible value; every smaller n is thereby verified
    infeasible.  An n is rejected at its first failing mean, so the means
    are tried nearest the regime boundary epsilon_a/epsilon_r first, by
    log distance (the mixed criterion binds there), and each mean that
    fails moves to the front.  The order changes only the cost.

    The closed-form n meets the guarantee at every mean, so the scan stops
    at or below it without evaluating its wide windows.
    Past the first mean, at delta >= SCREEN_DELTA_MIN and theta = n*lam <=
    THETA_MAX (the kernel raises beyond), a mean with L + U <= delta/2 passes
    unsummed: as k_min - 1 < theta < k_max + 1, L = exp(chernoff_log_bound(theta,
    k_min - 1)) (0 at k_min = 0) bounds Pr{K < k_min} and U, the same at the
    finite r = min(k_max + 1, uc + 1), uc from _span, bounds Pr{K > k_max}.  So
    coverage >= 1 - delta/2, and the kernel, off by under 1e-11 (65,536 * 1e-16
    per piece, 1e-16 per side; 1/50 of delta/2 at the floor), passes it too.
    Raises ResourceLimitError once the scan would try an n above
    SEARCH_CAP.  The result is a statement about the supplied grid only -
    means outside it are not checked.

    A delta below EXACT_DELTA_MIN = 1e-14 raises ResourceLimitError naming
    delta: 1 - delta rounds by up to 2^-54 = 5.6e-17 and the span leaves out
    up to 1e-16 per side, 2.6e-16 that does not shrink with delta: 2.6% of
    delta at the floor, and below 1.1e-16 the target 1 - delta is 1.0.
    """
    if budget.delta < EXACT_DELTA_MIN:
        raise ResourceLimitError(
            f"delta={budget.delta!r} is below the exact search's floor {EXACT_DELTA_MIN}", "delta"
        )
    lams = tuple(default_lambda_grid(budget) if grid is None else grid)
    if not lams:
        raise ParameterError("grid", "grid must be non-empty")
    for lam in lams:
        check_positive_real(lam, "grid")
    ratios = [_window_ratios(lam, budget) for lam in lams]

    target = 1.0 - budget.delta
    half, screen = budget.delta / 2.0, budget.delta >= SCREEN_DELTA_MIN
    log_boundary = math.log(budget.rel_boundary)
    order = sorted(range(len(lams)), key=lambda i: abs(math.log(lams[i]) - log_boundary))

    def ok(n: int) -> bool:
        for pos, idx in enumerate(order):
            theta = n * lams[idx]
            k_min, k_max = _window_at(n, ratios[idx])
            if pos and screen and theta <= THETA_MAX and _screened(theta, k_min, k_max, half):
                continue
            if _window_mass(theta, k_min, k_max) < target:
                order.insert(0, order.pop(pos))
                return False
        return True

    base = formula_sample_size(budget)
    n = 1
    while not ok(n):
        n += 1
        if n > SEARCH_CAP:
            raise ResourceLimitError(
                f"the exact search found no feasible n up to SEARCH_CAP = {SEARCH_CAP}; "
                f"the closed-form n is about {base.rhs:.3g}"
            )
    return PlanResult(n, base.rhs, base.critical_exponent, "exact_search")


def _screened(theta: float, k_min: int, k_max: int, half: float) -> bool:
    """Whether Chernoff bounds prove Pr{k_min <= K <= k_max} >= 1 - half (min_sample_size_exact)."""
    low = math.exp(chernoff_log_bound(theta, k_min - 1)) if k_min else 0.0
    return low + math.exp(chernoff_log_bound(theta, min(k_max + 1, _span(theta)[1] + 1))) <= half


def normal_quantile(p: float) -> float:
    """Standard normal quantile, p in (0, 1)."""
    return NormalDist().inv_cdf(check_unit_interval(p, "p"))


def normal_approx_sample_size(
    lambda_assumed: float, epsilon_a: float, delta: float
) -> PlanResult:
    """Textbook baseline: n = ceil(z_{1-delta/2}^2 * lam / epsilon_a^2).

    Uses Var(mean) = lam/n under the Poisson model and an assumed true mean;
    unlike the closed-form rule it carries no worst-case guarantee.  z is
    taken as -quantile(delta/2), which stays accurate where 1 - delta/2 would
    round to 1.  Raises ResourceLimitError when the right-hand side
    overflows a double, including when epsilon_a^2 underflows to 0, and
    when delta/2 rounds to 0.
    """
    check_positive_real(lambda_assumed, "lambda_assumed")
    check_positive_real(epsilon_a, "epsilon_a")
    check_unit_interval(delta, "delta")
    z = -normal_quantile(_half(delta))
    eps2 = epsilon_a * epsilon_a
    rhs = z * z * lambda_assumed / eps2 if eps2 else math.inf
    if not math.isfinite(rhs):
        raise ResourceLimitError(
            f"the normal-approximation n overflows for lambda_assumed={lambda_assumed!r}, "
            f"epsilon_a={epsilon_a!r}, delta={delta!r}"
        )
    return PlanResult(
        n=max(1, math.ceil(rhs)),
        rhs=rhs,
        critical_exponent=None,
        method="normal_approx",
    )
