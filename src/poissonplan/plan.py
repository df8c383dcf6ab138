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
explicit grid.  It scans n upward, from past every n with an empty window
at some grid mean, over the means nearest the regime boundary first;
SEARCH_CAP bounds the scan.  Four certificates decide most
(n, mean) pairs without a kernel sum, each proving what the kernel would
decide.  With theta = n*lam, w the window's half-width, d = n*w + 1 and

    H(k, theta) = k ln(k/theta) + theta - k = -(k - theta)*_phi((k - theta)/theta),

which grows with |k - theta| on each side of theta:

1. Reject an n.  The Poisson limit of Zubkov and Serov's binomial bounds
   (Theory Probab. Appl. 57:539, 2013; Short, ISRN Probab. Stat. 412958,
   2013) gives Pr{K <= k} >= Phi(-sqrt(2H(k, theta))) for k < theta and
   Pr{K >= m} >= Phi(-sqrt(2H(m, theta))) for m > theta, i.e.
   erfc(sqrt(H))/2.  The window misses above from
   m = k_max + 1 = ceil(n(lam + w)) <= theta + d and below from
   k_min - 1 = floor(n(lam - w)) > theta - d, so the miss is at least
   M(n) = U(n) + [d < theta] _tail_floor(theta, -d), U(n) = _tail_floor(theta, d).
2. Skip a run of n.  U is unimodal in n: with a = w/lam and t = 1/(n*lam),
   d/dn H(n*lam + n*w + 1, n*lam) = lam*B(t), B(t) = (1 + a)ln(1 + a + t) - (a + t),
   and dB/dt = -t/(1 + a + t) < 0.  t falls as n grows, so dH/dn changes
   sign at most once, from - to +: H falls, then rises, and U, which falls
   as H grows, rises, then falls.  So the n where U exceeds a threshold
   form one interval: where it does at n and at n' > n, every count in
   [n, n'] fails at that mean, and past the interval it never does again.
3. Pass the means outside a band.  Chernoff bounds the miss by
   exp(n*g(w, lam)) + exp(n*g(-w, lam)) (_chernoff_miss).  Where the
   absolute tolerance binds both exponents grow with lam: with x = e/lam,
   d/dlam g(e, lam) = x - ln(1 + x) >= 0 and d/dlam g(-e, lam) =
   -x - ln(1 - x) >= 0.  The lower tail switches on at lam = epsilon_a, so
   the bound does not decrease; where the
   relative one binds it is exp(n*lam*h(epsilon_r)) + exp(n*lam*h(-epsilon_r)),
   which does not increase.  The means whose bound exceeds any threshold
   therefore form one band of lam about the boundary; the search passes
   the others at the threshold delta - REJECT_MARGIN, certificate 4's.
4. Pass or reject one mean at its exact window ends.  Zubkov and Serov's
   bounds are two-sided: for S ~ Bin(m, p) and 0 <= k < m,
   Phi(s_m(k)) <= Pr{S <= k} <= Phi(s_m(k + 1)), with s_m(k) the signed root
   of twice m times the Bernoulli divergence of k/m from p.  At p = theta/m,
   as m grows, Pr{S <= k} tends to Pr{K <= k} and s_m(k) to
   s(k) = sgn(k - theta) sqrt(2H(k, theta)), so the non-strict bounds hold
   for K: Phi(s(k)) <= Pr{K <= k} <= Phi(s(k + 1)).  The miss
   Pr{K <= k_min - 1} + 1 - Pr{K <= k_max} is therefore at most
   [k_min >= 1] Phi(s(k_min)) + 1 - Phi(s(k_max)), which for
   k_min < theta < k_max is [k_min >= 1] _tail_floor(theta, k_min - theta) +
   _tail_floor(theta, k_max - theta), and at least the same sum at k_min - 1
   and k_max + 1, for k_min - 1 < theta < k_max + 1, where k_min = 1 takes
   Pr{K = 0} = e^{-theta} itself (_miss_verdict).  k_max is first clipped to
   the span's end uc, as the kernel clips it: both bounds then hold for the
   clipped window the kernel sums, which leaves out under 1e-16 below lc.

Margins: the kernel errs by under 1e-11 (65,536 * 1e-16 per piece plus
1e-16 per side) and 1 - delta rounds by 2^-54.  theta and d are each within
three roundings of exact, so H is within about 15 ulps relative and
erfc(sqrt(H))/2, whose derivative in H is at most e^{-H}/(2 sqrt(pi H)),
within 1e-15 absolute.  Certificate 4 forms each k - theta from exact
integers below 2^53 with one rounding, so each of its terms is within
1e-15 as well.  _chernoff_miss forms each exponent x <= 0 within a few
ulps, and e^x |x| <= 1/e, so it is within 2e-15 too.  A rejection needs
M(n), or the window's floor, above delta + REJECT_MARGIN (1e-10); a count
inside a skipped run lies between two whose computed U is above it, so by
unimodality its exact U is above it less 1e-15.  That leaves
kernel coverage below 1 - delta + 2e-15 + 1e-11 - 1e-10 < fl(1 - delta); a
pass, by a window's ceiling or outside the band, needs its bound at most
delta - REJECT_MARGIN, leaving kernel coverage at least
1 - delta + 1e-10 - 2e-15 - 1e-11 > fl(1 - delta).  Both rules hold at every
delta the search accepts.  Below delta = REJECT_MARGIN the pass threshold
is negative and nothing passes unsummed; at it, only a bound that
underflows to 0 passes.
``normal_approx_sample_size`` is the normal-approximation baseline.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Optional, Sequence

import numpy as np

from .bounds import _h, _phi, g_exponent
from .budget import ErrorBudget, relative_binds
from .errors import (
    ParameterError,
    ResourceLimitError,
    check_positive_int,
    check_positive_real,
    check_unit_interval,
)
from .exact import (
    THETA_MAX, CoveragePoint, _span, _window_at, _window_mass, _window_ratios, exact_coverage
)

# Largest n the exact search tries.  Outside its skips the scan spends a
# window evaluation or a tail floor on every n below its answer, and the
# closed-form n grows like 1/epsilon_a, so without a cap a tiny epsilon_a
# runs for hours; past it the search raises ResourceLimitError.
SEARCH_CAP = 2**20
# Most log-spaced points lambda_grid builds; more raise ResourceLimitError
# before any allocation (each point costs 8 bytes and one exact evaluation).
GRID_CAP = 2**20
# Relative error bound on the double rhs of the closed form where
# _phi(epsilon_r) is a normal double: a few ulps in _phi, the logarithm, the
# product and the quotient, about 1e-15; 2^-44 = 5.7e-14 is over 50 times that.
RHS_REL_ERR = 2.0**-44
REJECT_MARGIN = 1e-10  # how far a certified miss must exceed delta (min_sample_size_exact)
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
    are normal doubles, and -0.0 only where the product underflows.  Below
    epsilon_r = 2^-1021 (about 4.5e-308) _phi(epsilon_r) is subnormal and
    the product can err by 1e-8 relative, so _least_n decides there in
    decimal.
    """
    return budget.epsilon_a * _phi(budget.epsilon_r)


def formula_sample_size(budget: ErrorBudget) -> PlanResult:
    """Sample size from the closed-form rule: the smallest integer above the rhs.

    rhs = ln(2/delta)/-g_c with g_c = critical_exponent(budget), the rule
    in log space, and n = _least_n(budget, rhs), so an rhs that is exactly
    an integer m gives m + 1.  Raises ResourceLimitError where the rhs
    overflows a double (including where g_c rounds to -0.0).
    """
    g_c = critical_exponent(budget)
    rhs = math.log(2.0 / budget.delta) / -g_c if g_c else math.inf
    if not math.isfinite(rhs):
        raise ResourceLimitError(
            f"the closed-form n overflows for epsilon_a={budget.epsilon_a!r}, "
            f"epsilon_r={budget.epsilon_r!r} (critical exponent {g_c!r}), delta={budget.delta!r}"
        )
    return PlanResult(
        n=_least_n(budget, rhs),
        rhs=rhs,
        critical_exponent=g_c,
        method="formula",
    )


def is_sufficient(n: int, budget: ErrorBudget) -> bool:
    """True iff n samples meet the guarantee: n exceeds the closed form's true rhs.

    The same integer rule as formula_sample_size, n >= _least_n, so the
    two agree at every count; the rhs may overflow a double here, and
    _exact_n then decides.  A delta whose half rounds to 0 raises
    ResourceLimitError.
    """
    check_positive_int(n, "n")
    _half(budget.delta)
    g_c = critical_exponent(budget)
    return n >= _least_n(budget, math.log(2.0 / budget.delta) / -g_c if g_c else math.inf)


def _least_n(budget: ErrorBudget, rhs: float) -> int:
    """The smallest integer above the true rhs, given its double value rhs.

    That is floor(rhs) + 1 where the double can be trusted: it is finite,
    no integer lies within RHS_REL_ERR of it, and _phi(epsilon_r) ~
    -epsilon_r/2 is a normal double (epsilon_r >= 2^-1021; below, g_c
    carries the subnormal's absolute rounding, up to 1e-8 relative).
    Elsewhere _exact_n decides in decimal arithmetic.
    """
    if (math.isfinite(rhs) and budget.epsilon_r >= 2.0**-1021
            and math.floor(rhs * (1.0 + RHS_REL_ERR)) < math.ceil(rhs * (1.0 - RHS_REL_ERR))):
        return math.floor(rhs) + 1
    return _exact_n(budget)


def _exact_n(budget: ErrorBudget) -> int:
    """floor(rhs) + 1 for the true rhs = epsilon_r*ln(2/delta)/(epsilon_a*c), in decimal.

    c = (1 + epsilon_r)ln(1 + epsilon_r) - epsilon_r = -h(epsilon_r) lies in
    [x^2/3, x^2/2] for x = epsilon_r in (0, 1).  At precision P every decimal
    operation errs by at most u = 5*10^-P relative (ln is correctly rounded),
    so c errs by under 11u absolute, under 33u/x^2 relative, and the rhs by
    under 40u/x^2.  P = digits + 2*(digits of 1/x) keeps that below
    200*10^-digits, and the answer stands once rhs -+ 1000*10^-digits*rhs
    share their floor; digits double until they do.  That ends: by Baker's
    theorem the rhs, a ratio of logarithms of rationals offset by
    epsilon_r, is never an integer.
    """
    from decimal import Decimal, localcontext  # only knife-edge budgets come here

    ea, er, delta = (Decimal(x) for x in (budget.epsilon_a, budget.epsilon_r, budget.delta))
    digits, loss = 40, 2 * max(0, -er.adjusted())
    while True:
        with localcontext() as ctx:
            ctx.prec = digits + loss
            c = (1 + er) * (1 + er).ln() - er
            rhs = er * (2 / delta).ln() / (ea * c)
            slack = rhs.scaleb(3 - digits)
            low, high = math.floor(rhs - slack), math.floor(rhs + slack)
        if low == high:
            return low + 1
        digits *= 2


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
        raise ResourceLimitError(f"points={points} exceeds GRID_CAP = {GRID_CAP}", "points")
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
    return lambda_grid(budget, *_default_range(budget), points)


def _default_range(budget: ErrorBudget, lam_min=None, lam_max=None) -> tuple:
    """(lam_min, lam_max), an end not given taken as epsilon_a/100 or 100*epsilon_a/epsilon_r.

    A default end that underflows to 0 or overflows raises
    ResourceLimitError naming epsilon_a.
    """
    ends = budget.epsilon_a / 100.0, 100.0 * budget.rel_boundary
    if not all(0.0 < end < math.inf for end, given in zip(ends, (lam_min, lam_max)) if given is None):
        raise ResourceLimitError(f"the default grid (epsilon_a/100, 100*epsilon_a/epsilon_r) = "
                                 f"{ends!r} leaves the double range", "epsilon_a")
    return ends[0] if lam_min is None else lam_min, ends[1] if lam_max is None else lam_max


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

    On a fixed grid the feasible set can have holes just above its lower
    edge: theta = n*lam moves with n at each grid mean, so the coverage at
    that mean oscillates with n.  So the search scans n upward and returns
    the first fully feasible value; every smaller n is thereby verified
    infeasible.  It starts past every n that has an empty window at some
    grid mean, which fails there: at a mean lam >= epsilon_a (so lam >= w,
    w the half-width) the window is empty while n*(lam + w) <= 1, that is
    up to den // hi of the window's integer ratios, and that bound falls
    as lam rises; a mean below epsilon_a has a window that reaches 0.  So
    the scan starts at den // hi + 1 of the least grid mean >= epsilon_a.
    An n is rejected at its first failing mean, so the means are tried
    nearest the regime boundary epsilon_a/epsilon_r first, by log distance
    (the mixed criterion binds there), and each mean that fails moves to
    the front.  The order changes only the cost.

    The four certificates of the module docstring stand in for kernel
    sums, each only at a mean with theta = n*lam <= THETA_MAX:
    - where the front mean's upper floor U(n) = _tail_floor(theta, n*w + 1)
      exceeds delta + REJECT_MARGIN, n fails, and so does every count after
      it up to the first where U does not, found by one bisection: U is
      unimodal in n, at every n;
    - elsewhere, an n whose front mean has its full floor M(n) above
      delta + REJECT_MARGIN fails unsummed;
    - once the front mean passes, the other means are evaluated, in order,
      only inside the band where _chernoff_miss exceeds
      delta - REJECT_MARGIN (found by two bisections over the grid, which
      the search sorts by lam) or past THETA_MAX;
    - each window the search would sum, the front mean's and the band's,
      goes first to _miss_verdict, and is summed only where its ceiling
      does not pass it and its floor does not reject it; a band mean it
      rejects moves to the front as a summed failure does.
    A certified rejection has kernel coverage below 1 - delta, a certified
    pass at least 1 - delta, so every n is that of the plain scan; and as
    no certificate applies past THETA_MAX, the kernel raises its domain
    error at the first n tried whose visited means reach past it.  Window
    endpoints are formed only for the means visited, after every grid mean
    is validated.

    The closed-form n meets the guarantee at every mean, so the scan stops
    at or below it without evaluating its wide windows.  Raises
    ResourceLimitError once the scan, its start or a skip would try an n
    above SEARCH_CAP.  The result certifies the supplied grid only, not every
    lam > 0: means between grid points are not checked, and the smallest n
    that holds at every real lam can be larger (390 rather than 381 at the
    canonical budget 0.1, 0.1, 0.05; ROADMAP.md, direction 1).

    A delta below EXACT_DELTA_MIN = 1e-14 raises ResourceLimitError naming
    delta: 1 - delta rounds by up to 2^-54 = 5.6e-17 and the span leaves out
    up to 1e-16 per side, 2.6e-16 that does not shrink with delta: 2.6% of
    delta at the floor, and below 1.1e-16 the target 1 - delta is 1.0.
    """
    if budget.delta < EXACT_DELTA_MIN:
        raise ResourceLimitError(
            f"delta={budget.delta!r} is below the exact search's floor {EXACT_DELTA_MIN}", "delta"
        )
    lams = sorted(check_positive_real(lam, "grid")
                  for lam in (default_lambda_grid(budget) if grid is None else grid))
    if not lams:
        raise ParameterError("grid", "grid must be non-empty")

    count, means = len(lams), range(len(lams))
    target = 1.0 - budget.delta
    reject, band = budget.delta + REJECT_MARGIN, budget.delta - REJECT_MARGIN
    log_boundary = math.log(budget.rel_boundary)
    order = sorted(means, key=lambda i: abs(math.log(lams[i]) - log_boundary))
    # Means from split on take the relative half-width (relative_binds is monotone in lam).
    split = bisect_left(means, True, key=lambda i: relative_binds(lams[i], budget))
    windows = {}

    def window(idx: int) -> tuple:
        """(ratios, w) of mean idx: its window's integer ratios and half-width."""
        if idx not in windows:
            relative = idx >= split
            w = budget.epsilon_r * lams[idx] if relative else budget.epsilon_a
            windows[idx] = _window_ratios(lams[idx], budget, relative), w
        return windows[idx]

    def passes(n: int, idx: int) -> bool:
        return _chernoff_miss(n, lams[idx], budget, idx >= split) <= band

    def covers(n: int, theta: float, ratios) -> bool:
        """The kernel's verdict on the window at n, or certificate 4's where it decides."""
        k_min, k_max = _window_at(n, ratios)
        verdict = _miss_verdict(theta, k_min, k_max, budget.delta) if theta <= THETA_MAX else None
        if verdict is None:
            return _window_mass(theta, k_min, k_max) >= target
        return verdict

    base = formula_sample_size(budget)
    n, first = 1, bisect_left(lams, budget.epsilon_a)
    if first < count:  # every n <= den // hi has an empty window at this mean
        _, hi, den = window(first)[0]
        n = min(den // hi + 1, SEARCH_CAP + 1)
    while n <= SEARCH_CAP:
        front = order[0]
        lam = lams[front]
        ratios, w = window(front)
        theta, d = n * lam, n * w + 1.0
        if theta <= THETA_MAX:
            upper = _tail_floor(theta, d)
            if upper > reject:  # certificate 2: U is above reject up to the new n
                n = bisect_left(range(SEARCH_CAP + 1), True, lo=n + 1, key=lambda m: not (
                    m * lam <= THETA_MAX and _tail_floor(m * lam, m * w + 1.0) > reject))
                continue
            if d < theta and upper + _tail_floor(theta, -d) > reject:  # certificate 1
                n += 1
                continue
        if not covers(n, theta, ratios):
            n += 1
            continue
        lo = bisect_left(means, True, hi=split, key=lambda i: not passes(n, i))
        hi = bisect_left(means, True, lo=split, key=lambda i: passes(n, i))
        for idx in order[1:]:
            theta = n * lams[idx]
            if theta <= THETA_MAX and not lo <= idx < hi:
                continue
            if not covers(n, theta, window(idx)[0]):
                order.remove(idx)
                order.insert(0, idx)
                break
        else:
            return PlanResult(n, base.rhs, base.critical_exponent, "exact_search")
        n += 1
    raise ResourceLimitError(
        f"the exact search found no feasible n up to SEARCH_CAP = {SEARCH_CAP}; "
        f"the closed-form n is about {base.rhs:.3g}"
    )


def _tail_floor(theta: float, d: float) -> float:
    """erfc(sqrt(H))/2, H = H(theta + d, theta) = -d*_phi(d/theta), for d/theta > -1.

    A lower bound on Pr{K >= m} for K ~ Poisson(theta) and every integer m
    in (theta, theta + d] (d > 0), and on Pr{K <= k} for every integer k in
    [theta + d, theta) (d < 0); nan where d/theta is inf.
    """
    return 0.5 * math.erfc(math.sqrt(-d * _phi(d / theta)))


def _miss_verdict(theta: float, k_min: int, k_max: int, delta: float) -> Optional[bool]:
    """Certificate 4 on the window [k_min, k_max] at theta: True, False, or None if undecided.

    True where the miss ceiling is at most delta - REJECT_MARGIN, False
    where the miss floor exceeds delta + REJECT_MARGIN; the floor is tried
    only where the ceiling does not pass.  k_max is clipped to the span's
    end first (it may be a Python int past the double range), and each
    k - theta is (k - floor(theta)) - frac(theta): an exact integer below
    2^53 less an exact fraction, one rounding, so its sign is exact.
    """
    base = math.floor(theta)
    frac = theta - base
    k_max = min(k_max, _span(theta)[1])
    below, above = k_min - base - frac, k_max - base - frac
    if below < 0.0 < above:
        ceiling = (_tail_floor(theta, below) if k_min else 0.0) + _tail_floor(theta, above)
        if ceiling <= delta - REJECT_MARGIN:
            return True
    below, above = k_min - 1 - base - frac, k_max + 1 - base - frac
    if below < 0.0 < above:
        floor = _tail_floor(theta, below) if k_min > 1 else math.exp(-theta) if k_min else 0.0
        if floor + _tail_floor(theta, above) > delta + REJECT_MARGIN:
            return False
    return None


def _chernoff_miss(n: int, lam: float, budget: ErrorBudget, relative: bool) -> float:
    """The Chernoff bound on Pr{|K/n - lam| >= w}, K ~ Poisson(n*lam), w the half-width.

    relative (w = epsilon_r*lam): exp(n*lam*h(epsilon_r)) + exp(n*lam*h(-epsilon_r)).
    Otherwise (w = epsilon_a): exp(n*g(epsilon_a, lam)) plus, for the lower
    tail, 0 where lam < epsilon_a (the window starts at 0), e^{-n*lam} =
    Pr{K = 0} at lam = epsilon_a (the u = -1 limit _phi cannot evaluate), and
    exp(n*g(-epsilon_a, lam)) above.
    """
    theta = n * lam
    if relative:
        return math.exp(theta * _h(budget.epsilon_r)) + math.exp(theta * _h(-budget.epsilon_r))
    miss = math.exp(n * g_exponent(budget.epsilon_a, lam))
    if lam == budget.epsilon_a:
        return miss + math.exp(-theta)
    if lam > budget.epsilon_a:
        return miss + math.exp(n * g_exponent(-budget.epsilon_a, lam))
    return miss


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
