"""Tests for sample-size planning: closed form, threshold, search, baseline."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from poissonplan import (
    CaseLabel,
    ErrorBudget,
    ParameterError,
    ResourceLimitError,
    case_of,
    coverage_window,
    critical_exponent,
    default_lambda_grid,
    exact_coverage,
    formula_sample_size,
    g_exponent,
    is_sufficient,
    lambda_grid,
    min_sample_size_exact,
    normal_approx_sample_size,
    normal_quantile,
    scan_coverage,
)
from poissonplan import plan
from poissonplan.budget import relative_binds

from _oracles import (
    cdf_gamma_ref, coverage_ref, g_ref, h_ref, min_n_grid_ref, mpf_of, normal_quantile_ref
)

RHS_A = 761.97660540300205   # eps_a = eps_r = 0.1, delta = 0.05
RHS_B = 380.98830270150103   # eps_a = 0.2, eps_r = 0.1, delta = 0.05
CRIT_01_01 = -0.004841197784757347
Z_975 = 1.9599639845400543

# Regression fixture (computed by this package's exact search on the default
# grid; a property of the implementation, not an external truth).
EXACT_MIN_N_CANONICAL = 381  # for ErrorBudget(0.1, 0.1, 0.05)

# The same kind of fixture for budgets (eps_a, eps_r, delta) spread over
# eps_a in [0.05, 1], eps_r in [0.05, 0.8], delta in [0.01, 0.2].
EXACT_MIN_N_PANEL = [
    ((0.05, 0.8, 0.2), 46),
    ((0.07, 0.3, 0.1), 127),
    ((0.1, 0.1, 0.05), 381),
    ((0.1, 0.5, 0.01), 134),
    ((0.15, 0.05, 0.2), 221),
    ((0.2, 0.2, 0.02), 136),
    ((0.3, 0.08, 0.05), 161),
    ((0.4, 0.6, 0.15), 9),
    ((0.5, 0.12, 0.01), 111),
    ((0.7, 0.25, 0.08), 18),
    ((0.9, 0.05, 0.03), 105),
    ((1.0, 0.8, 0.01), 9),
]

BUDGET_GRID = [
    ErrorBudget(ea, er, d)
    for ea in (0.01, 0.1, 1.0)
    for er in (0.05, 0.1, 0.5, 0.9)
    for d in (0.2, 0.05, 0.01)
]


class TestBudgetValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(epsilon_a=0.0, epsilon_r=0.1, delta=0.05), "epsilon_a"),
            (dict(epsilon_a=-1.0, epsilon_r=0.1, delta=0.05), "epsilon_a"),
            (dict(epsilon_a=0.1, epsilon_r=0.0, delta=0.05), "epsilon_r"),
            (dict(epsilon_a=0.1, epsilon_r=1.0, delta=0.05), "epsilon_r"),
            (dict(epsilon_a=0.1, epsilon_r=1.5, delta=0.05), "epsilon_r"),
            (dict(epsilon_a=0.1, epsilon_r=0.1, delta=0.0), "delta"),
            (dict(epsilon_a=0.1, epsilon_r=0.1, delta=1.0), "delta"),
            (dict(epsilon_a=float("nan"), epsilon_r=0.1, delta=0.05), "epsilon_a"),
            (dict(epsilon_a=float("inf"), epsilon_r=0.1, delta=0.05), "epsilon_a"),
        ],
    )
    def test_rejects_and_names_offending_field(self, kwargs, field):
        with pytest.raises(ParameterError) as excinfo:
            ErrorBudget(**kwargs)
        assert excinfo.value.param == field


class TestFormulaSampleSize:
    def test_canonical_budget(self):
        res = formula_sample_size(ErrorBudget(0.1, 0.1, 0.05))
        assert res.n == 762
        assert res.rhs == pytest.approx(RHS_A, rel=1e-12, abs=0.0)
        assert res.method == "formula"

    def test_doubled_absolute_tolerance(self):
        res = formula_sample_size(ErrorBudget(0.2, 0.1, 0.05))
        assert res.n == 381
        assert res.rhs == pytest.approx(RHS_B, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "eps_a, eps_r",
        [(1e-300, 1e-300), (5e-324, 0.9)],
    )
    def test_unrepresentable_rule_raises_resource_limit(self, eps_a, eps_r):
        # The critical exponent itself underflows to 0.
        with pytest.raises(ResourceLimitError):
            formula_sample_size(ErrorBudget(eps_a, eps_r, 0.05))

    @pytest.mark.parametrize("eps_a, eps_r", [(0.1, 1e-170), (0.1, 1e-160)])
    def test_rule_where_h_is_not_normal_matches_mpmath(self, eps_a, eps_r):
        # h(eps_r) is 0 or subnormal while eps_a/eps_r stays finite: the
        # exponent and n (up to 7.4e171) are still representable.
        res = formula_sample_size(ErrorBudget(eps_a, eps_r, 0.05))
        with mpmath.workdps(700):
            a, r = mpmath.mpf(eps_a), mpmath.mpf(eps_r)
            g_c = -(a / r) * ((1 + r) * mpmath.log1p(r) - r)
            n = int(mpmath.floor(mpmath.log(2 / mpf_of(0.05)) / -g_c)) + 1
        assert res.critical_exponent == pytest.approx(float(g_c), rel=1e-14, abs=0.0)
        assert res.n == n

    @pytest.mark.parametrize(
        "eps_a, eps_r, delta", [(1e305, 1e-315, 0.05), (1e10, 1e-315, 0.05), (1e8, 1e-312, 0.1)]
    )
    def test_rule_where_phi_is_subnormal_matches_mpmath(self, eps_a, eps_r, delta):
        # _phi(eps_r) is subnormal below eps_r = 2^-1021, so g_c errs by about
        # 1e-8 relative.  Trusting the double rhs gave 73,777,589,559 for the
        # first (true 73,777,589,195); the log-space threshold refused the
        # second's true n and accepted the third's n - 1.
        budget = ErrorBudget(eps_a, eps_r, delta)
        with mpmath.workdps(1500):
            a, r = mpf_of(eps_a), mpf_of(eps_r)
            g_c = -(a / r) * ((1 + r) * mpmath.log1p(r) - r)
            n = int(mpmath.floor(mpmath.log(2 / mpf_of(delta)) / -g_c)) + 1
        assert formula_sample_size(budget).n == n
        assert is_sufficient(n, budget) and not is_sufficient(n - 1, budget)

    def test_doubling_eps_a_exactly_halves_rhs(self):
        for er, d in [(0.1, 0.05), (0.5, 0.2), (0.9, 0.01)]:
            rhs1 = formula_sample_size(ErrorBudget(0.1, er, d)).rhs
            rhs2 = formula_sample_size(ErrorBudget(0.2, er, d)).rhs
            assert rhs2 == rhs1 / 2.0

    def test_result_brackets_rhs(self):
        for budget in BUDGET_GRID:
            res = formula_sample_size(budget)
            assert res.n > res.rhs
            assert res.n - 1 <= res.rhs

    def test_tie_rule(self):
        # rhs = 8,921,827.996: a snap to the nearest integer within 1e-9
        # relative gave 8,921,829, while the threshold accepts 8,921,828.
        budget = ErrorBudget(0.001, 0.001, 0.023137963025333694)
        res = formula_sample_size(budget)
        assert math.floor(res.rhs) == 8_921_827
        assert res.n == 8_921_828
        assert is_sufficient(res.n, budget)
        assert not is_sufficient(res.n - 1, budget)

    @pytest.mark.parametrize("eps_a", [1e-300, 1e-100, 1e-20])
    def test_tie_rule_past_2_53(self, eps_a):
        # Consecutive counts share a double here, so the double rhs cannot
        # separate them; the decimal rule gives the integer above the true rhs.
        budget = ErrorBudget(eps_a, 0.5, 0.05)
        res = formula_sample_size(budget)
        assert res.n == _closed_form_n_ref(budget)
        assert res.n == pytest.approx(res.rhs, rel=1e-14, abs=0.0)
        assert is_sufficient(res.n, budget) and not is_sufficient(res.n - 1, budget)

    def test_knife_edge_budget(self):
        # The double rhs is 536295838103.99994, the true one 536295838104.0000116:
        # floor + 1 of the double gave 536295838104, which does not exceed it.
        budget = ErrorBudget(8.24703125024199e-05, 1.4015288631808742e-06, 6.928224372554051e-14)
        res = formula_sample_size(budget)
        assert math.floor(res.rhs) == 536_295_838_103
        assert res.n == _closed_form_n_ref(budget) == 536_295_838_105
        assert is_sufficient(res.n, budget) and not is_sufficient(res.n - 1, budget)

    def test_tie_rule_is_monotone(self):
        # delta sweeps the rhs across the integer 8,921,828.
        d0 = 0.023137963025333694
        deltas = sorted(d0 * (1.0 + j * 1e-10) for j in range(-50, 51))
        ns = [formula_sample_size(ErrorBudget(0.001, 0.001, d)).n for d in deltas]
        assert ns == sorted(ns, reverse=True)
        assert set(ns) == {8_921_828, 8_921_829}


class TestCriticalExponent:
    def test_value(self):
        assert critical_exponent(ErrorBudget(0.1, 0.1, 0.05)) == pytest.approx(
            CRIT_01_01, rel=1e-12, abs=0.0
        )

    def test_linear_in_eps_a(self):
        one = critical_exponent(ErrorBudget(0.1, 0.1, 0.05))
        two = critical_exponent(ErrorBudget(0.2, 0.1, 0.05))
        assert two == 2.0 * one

    def test_always_negative(self):
        for budget in BUDGET_GRID:
            assert critical_exponent(budget) < 0.0

    def test_agrees_with_exponent_function(self):
        for budget in BUDGET_GRID:
            direct = g_exponent(budget.epsilon_a, budget.epsilon_a / budget.epsilon_r)
            assert critical_exponent(budget) == pytest.approx(direct, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "eps_r",
        [1e-300, 1e-200, 1e-160, 1e-100, 1e-40, 1e-12, 1e-5, 9.9e-5, 1.01e-4,
         1e-3, 0.01, 0.1, 0.2499, 0.25, 0.2501, 0.5, 0.99],
    )
    @pytest.mark.parametrize("eps_a", [1e-3, 1.0, 1e100])
    def test_matches_mpmath(self, eps_a, eps_r):
        ref = mpf_of(eps_a) * h_ref(eps_r) / mpf_of(eps_r)
        got = critical_exponent(ErrorBudget(eps_a, eps_r, 0.05))
        assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def _closed_form_panel(count, seed):
    """Seeded budgets with eps_a in [1e-3, 1e3], eps_r in [1e-4, 0.99] and
    delta in [1e-12, 0.5], all log-uniform, so the rhs stays below 6e8."""
    rng = random.Random(seed)
    return [
        ErrorBudget(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-4, math.log10(0.99)),
                    10.0 ** rng.uniform(-12, math.log10(0.5)))
        for _ in range(count)
    ]


def _closed_form_n_ref(budget):
    """The smallest integer above ln(2/delta)/-g_c, evaluated at 700 digits."""
    with mpmath.workdps(700):
        g_c = mpf_of(budget.epsilon_a) * h_ref(budget.epsilon_r) / mpf_of(budget.epsilon_r)
        return int(mpmath.floor(mpmath.log(2 / mpf_of(budget.delta)) / -g_c)) + 1


# Budgets whose true rhs lies within 3e-7 of an integer (rhs up to 6.3e6), so
# the double rhs's error interval holds that integer and the decimal rule
# decides.  At the last, the double rhs is 2677.0000000000014 and the true one
# 2676.9999999999985: floor + 1 of the double, then the threshold, gave 2678.
KNIFE_EDGE_BUDGETS = [
    ErrorBudget(0.18525764165144779, 0.007556331792920596, 0.0003310869785802497),
    ErrorBudget(0.1410820874056038, 0.000667769400610739, 0.0006375819484884012),
    ErrorBudget(0.1375701910987134, 0.06808394710613373, 0.01586392723208614),
    ErrorBudget(19.119215895311594, 0.0024903156808005313, 7.472185585452153e-08),
    ErrorBudget(0.00347550856015503, 0.09349084767182003, 0.0008396629954669689),
    ErrorBudget(0.005077315643113694, 0.21999014924915075, 4.510251491761415e-11),
    ErrorBudget(0.001047961800109633, 0.00720799688475765, 9.697629268171063e-11),
    ErrorBudget(0.05709725207924258, 0.276044918362489, 7.618602194931008e-09),
]


@pytest.mark.parametrize("budget", _closed_form_panel(200, 15) + KNIFE_EDGE_BUDGETS)
def test_closed_form_n_matches_mpmath(budget):
    n = _closed_form_n_ref(budget)
    assert n < 1e9
    assert formula_sample_size(budget).n == n


def _min_sufficient_n(budget, cap):
    lo, hi = 0, cap
    assert is_sufficient(hi, budget)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 1 and is_sufficient(mid, budget):
            hi = mid
        else:
            lo = mid
    return hi


class TestIsSufficient:
    def test_threshold_pair(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        assert is_sufficient(762, budget) is True
        assert is_sufficient(761, budget) is False

    def test_single_sample_budget(self):
        budget = ErrorBudget(10.0, 0.9, 0.5)
        res = formula_sample_size(budget)
        assert is_sufficient(res.n, budget)
        assert res.n == _min_sufficient_n(budget, 4 * res.n + 4)

    def test_matches_formula_minimality_on_grid(self):
        for budget in BUDGET_GRID:
            n_formula = formula_sample_size(budget).n
            assert _min_sufficient_n(budget, 4 * n_formula + 4) == n_formula

    def test_monotone_in_n(self):
        budget = ErrorBudget(0.3, 0.2, 0.1)
        flags = [is_sufficient(n, budget) for n in range(1, 400)]
        assert flags == sorted(flags)  # False everywhere before True

    def test_validation(self):
        with pytest.raises(ParameterError):
            is_sufficient(0, ErrorBudget(0.1, 0.1, 0.05))


class TestCaseClassifier:
    def test_examples(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        assert case_of(0.05, budget) is CaseLabel.I
        assert case_of(0.1, budget) is CaseLabel.II
        assert case_of(0.5, budget) is CaseLabel.III
        assert case_of(2.0, budget) is CaseLabel.IV

    def test_relative_boundary_belongs_to_case_three(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        assert budget.rel_boundary == 1.0
        assert case_of(1.0, budget) is CaseLabel.III
        assert case_of(1.0 + 1e-12, budget) is CaseLabel.IV

    def test_positive_mean_required(self):
        with pytest.raises(ParameterError):
            case_of(0.0, ErrorBudget(0.1, 0.1, 0.05))

    def test_rounded_relative_boundary_is_decided_exactly(self):
        # lambda_grid inserts fl(eps_a/eps_r), which lies on either side of the
        # rational boundary eps_r*lam == eps_a; the label follows the exact side,
        # the one that picks the window's half-width.
        rng = random.Random(16)
        moved = 0
        for _ in range(400):
            eps_a, eps_r = 10.0 ** rng.uniform(-4.0, 1.0), rng.uniform(1e-3, 0.999)
            budget = ErrorBudget(eps_a, eps_r, 0.05)
            b = budget.rel_boundary
            for lam in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)):
                relative = Fraction(eps_r) * Fraction(lam) > Fraction(eps_a)
                label = CaseLabel.IV if relative else CaseLabel.III
                assert case_of(lam, budget) is label, (eps_a, eps_r, lam)
                moved += relative != (lam > b)
        assert moved > 100  # the float test lam > b gets that many of them wrong

    @given(lam=st.floats(min_value=1e-6, max_value=1e4))
    def test_exactly_one_label(self, lam):
        budget = ErrorBudget(0.3, 0.25, 0.1)
        label = case_of(lam, budget)
        expected = (
            CaseLabel.I if lam < 0.3
            else CaseLabel.II if lam == 0.3
            else CaseLabel.III if lam <= 0.3 / 0.25
            else CaseLabel.IV
        )
        assert label is expected


class TestMonotonicityOfN:
    def test_n_non_increasing_in_each_parameter(self):
        eas, ers, ds = (0.01, 0.1, 1.0), (0.05, 0.1, 0.5, 0.9), (0.01, 0.05, 0.2)
        for er in ers:
            for d in ds:
                ns = [formula_sample_size(ErrorBudget(ea, er, d)).n for ea in eas]
                assert ns == sorted(ns, reverse=True)
        for ea in eas:
            for d in ds:
                ns = [formula_sample_size(ErrorBudget(ea, er, d)).n for er in ers]
                assert ns == sorted(ns, reverse=True)
        for ea in eas:
            for er in ers:
                ns = [formula_sample_size(ErrorBudget(ea, er, d)).n for d in ds]
                assert ns == sorted(ns, reverse=True)


class TestCaseTwoChain:
    def test_point_mass_bound_below_exponent_bound(self):
        # e^{-n*eps_a} < exp(n * g(eps_a, eps_a)): the zero-count probability
        # is strictly inside the one-sided exponent bound at lam = eps_a.
        for eps_a in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
            for n in (1, 10, 100):
                assert math.exp(-n * eps_a) < math.exp(n * g_exponent(eps_a, eps_a))


class TestLambdaGrids:
    def test_default_grid_shape(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        grid = default_lambda_grid(budget)
        assert len(grid) >= 200
        assert grid == tuple(sorted(grid))
        assert grid[0] == pytest.approx(0.001, abs=0.0)
        assert grid[-1] == pytest.approx(100.0, abs=0.0)
        assert 0.1 in grid and 1.0 in grid
        assert 0.1 * (1 + 1e-6) in grid and 0.1 * (1 - 1e-6) in grid
        assert 1.0 * (1 + 1e-6) in grid and 1.0 * (1 - 1e-6) in grid

    def test_default_grid_spans_all_cases(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        labels = {case_of(lam, budget) for lam in default_lambda_grid(budget)}
        assert labels == {CaseLabel.I, CaseLabel.II, CaseLabel.III, CaseLabel.IV}

    def test_custom_range_excludes_outside_boundaries(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        grid = lambda_grid(budget, 2.0, 2.0, 1)
        assert grid == (2.0,)

    def test_validation(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        with pytest.raises(ParameterError):
            lambda_grid(budget, 0.0, 1.0, 10)
        with pytest.raises(ParameterError):
            lambda_grid(budget, 2.0, 1.0, 10)
        with pytest.raises(ParameterError):
            lambda_grid(budget, 1.0, 2.0, 0)

    @pytest.mark.parametrize(
        "lam_min, lam_max, param",
        [(1.0, math.inf, "lam_max"), (1.0, math.nan, "lam_max"),
         (math.inf, math.inf, "lam_max"), (math.nan, 2.0, "lam_min")],
    )
    def test_non_finite_ends_rejected_by_name(self, lam_min, lam_max, param):
        with pytest.raises(ParameterError) as excinfo:
            lambda_grid(ErrorBudget(0.1, 0.1, 0.05), lam_min, lam_max, 10)
        assert excinfo.value.param == param

    def test_grid_cap(self, monkeypatch):
        assert plan.GRID_CAP == 2**20
        budget = ErrorBudget(0.1, 0.1, 0.05)
        monkeypatch.setattr(plan, "GRID_CAP", 4)
        assert len(lambda_grid(budget, 2.0, 3.0, 4)) == 4
        with pytest.raises(ResourceLimitError, match="GRID_CAP = 4"):
            lambda_grid(budget, 2.0, 3.0, 5)


class TestScanCoverage:
    def test_scan_order_matches_grid(self):
        budget = ErrorBudget(0.5, 0.2, 0.1)
        grid = default_lambda_grid(budget)
        points = scan_coverage(40, budget, grid)
        assert tuple(p.lam for p in points) == grid


class TestMinSampleSizeExact:
    def test_degenerate_tiny_mean_grid(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        res = min_sample_size_exact(budget, grid=[1e-6])
        assert res.n == 1
        assert res.method == "exact_search"
        assert exact_coverage(1, 1e-6, budget).coverage >= 0.95

    def test_canonical_budget_regression(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        res = min_sample_size_exact(budget)
        assert res.n == EXACT_MIN_N_CANONICAL
        assert res.n <= formula_sample_size(budget).n

    @pytest.mark.parametrize("eps, n", EXACT_MIN_N_PANEL)
    def test_pinned_panel(self, eps, n):
        assert min_sample_size_exact(ErrorBudget(*eps)).n == n

    def test_minimality_witness(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        n_star = min_sample_size_exact(budget).n
        grid = default_lambda_grid(budget)
        assert all(exact_coverage(n_star, lam, budget).coverage >= 0.95 for lam in grid)
        assert any(exact_coverage(n_star - 1, lam, budget).coverage < 0.95 for lam in grid)

    def test_search_cap(self, monkeypatch):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        monkeypatch.setattr(plan, "SEARCH_CAP", EXACT_MIN_N_CANONICAL)
        assert min_sample_size_exact(budget).n == EXACT_MIN_N_CANONICAL
        monkeypatch.setattr(plan, "SEARCH_CAP", EXACT_MIN_N_CANONICAL - 1)
        with pytest.raises(ResourceLimitError, match=f"SEARCH_CAP = {EXACT_MIN_N_CANONICAL - 1}"):
            min_sample_size_exact(budget)

    @given(
        eps=st.one_of(
            st.tuples(st.floats(min_value=0.05, max_value=0.3),
                      st.floats(min_value=0.05, max_value=0.3),
                      st.floats(min_value=0.02, max_value=0.2)),
            # delta log-uniform down to plan.EXACT_DELTA_MIN, both sides of
            # REJECT_MARGIN = 1e-10, below which no bound passes a mean, with
            # tolerances that keep the answers near 1000 to 3500.
            st.tuples(st.floats(min_value=0.15, max_value=0.3),
                      st.floats(min_value=0.15, max_value=0.3),
                      st.floats(min_value=-14.0, max_value=-8.0).map(lambda e: 10.0**e)),
        ),
        octaves=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_in_any_order(self, eps, octaves, data):
        # Means within 3 octaves of the regime boundary: answers of about 10 to 1000
        # at delta >= 0.02.
        budget = ErrorBudget(*eps)
        grid = [budget.rel_boundary * 2.0**u for u in octaves]
        n_ref = min_n_grid_ref(budget, grid)
        assert min_sample_size_exact(budget, grid=grid).n == n_ref
        shuffled = data.draw(st.permutations(grid))
        assert min_sample_size_exact(budget, grid=shuffled).n == n_ref

    def test_grid_validation(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        with pytest.raises(ParameterError):
            min_sample_size_exact(budget, grid=[])
        with pytest.raises(ParameterError):
            min_sample_size_exact(budget, grid=[1.0, -2.0])
        for bad in (math.inf, math.nan):
            with pytest.raises(ParameterError) as excinfo:
                min_sample_size_exact(budget, grid=[1.0, bad])
            assert excinfo.value.param == "grid"


def _no_certificate_panel(count, seed):
    """Seeded budgets with eps_a in [0.1, 1], eps_r in [0.1, 0.8] and delta in
    [1e-9, 0.2], all log-uniform: default-grid answers up to about 2,500."""
    rng = random.Random(seed)
    return [
        ErrorBudget(10.0 ** rng.uniform(-1, 0), 10.0 ** rng.uniform(-1, math.log10(0.8)),
                    10.0 ** rng.uniform(-9, math.log10(0.2)))
        for _ in range(count)
    ]


def _windows_with_miss(theta):
    """(k_min, k_max, miss) with ends within 12 sd of theta or in {0, 1, 2}, k_min <= k_max + 1.

    miss = Pr{K <= k_min - 1} + Pr{K > k_max} for K ~ Poisson(theta), from
    mpmath's incomplete gamma.
    """
    sd = math.sqrt(theta)
    ends = sorted({max(0, round(theta + z * sd)) for z in range(-12, 13)} | {0, 1, 2})
    cdf = {k: cdf_gamma_ref(theta, k) for k in {e + j for e in ends for j in (-1, 0)} if k >= 0}
    return [(a, b, float((cdf[a - 1] if a else 0) + 1 - cdf[b]))
            for a in ends for b in ends if a <= b + 1]


def _uncertified(monkeypatch):
    """Switch every certificate of min_sample_size_exact off: it sums each window it visits.

    No floor rejects (certificates 1 and 2), no Chernoff bound passes a
    mean (3), and no window end decides (4).
    """
    monkeypatch.setattr(plan, "_tail_floor", lambda theta, d: 0.0)
    monkeypatch.setattr(plan, "_chernoff_miss", lambda n, lam, budget, relative: math.inf)
    monkeypatch.setattr(plan, "_miss_verdict", lambda theta, k_min, k_max, delta: None)


def _miss_floor(n, lam, budget):
    """The front-mean rejection bound M(n) of min_sample_size_exact."""
    theta, d = n * lam, n * max(budget.epsilon_a, budget.epsilon_r * lam) + 1.0
    return plan._tail_floor(theta, d) + (plan._tail_floor(theta, -d) if d < theta else 0.0)


class TestChernoffScreen:
    """The exact search's certificates: each decides only what the kernel would."""

    @given(
        ea=st.floats(min_value=1e-3, max_value=1.0),
        er=st.floats(min_value=0.01, max_value=0.9),
        log_d=st.floats(min_value=-14.0, max_value=math.log10(0.6)),
        frac=st.floats(min_value=0.05, max_value=2.0),
        octave=st.floats(min_value=-3.0, max_value=3.0),
    )
    @example(ea=0.1, er=0.1, log_d=math.log10(0.05), frac=0.5, octave=0.0)
    @settings(max_examples=200, deadline=None)
    def test_accepted_window_covers_one_minus_half_delta(self, ea, er, log_d, frac, octave):
        # Band passes, at a bound of at most delta - REJECT_MARGIN, have kernel
        # coverage above 1 - delta, and certified rejections fail at the kernel.
        budget = ErrorBudget(ea, er, 10.0**log_d)
        n = max(1, int(frac * formula_sample_size(budget).n))
        lam = budget.rel_boundary * 2.0**octave
        relative = relative_binds(lam, budget)
        coverage = exact_coverage(n, lam, budget).coverage
        if plan._chernoff_miss(n, lam, budget, relative) <= budget.delta - plan.REJECT_MARGIN:
            assert coverage > 1.0 - budget.delta
        if _miss_floor(n, lam, budget) > budget.delta + plan.REJECT_MARGIN:
            assert coverage < 1.0 - budget.delta

    @given(
        a=st.floats(min_value=1e-3, max_value=1.0),
        log_lam=st.floats(min_value=-4.0, max_value=3.0),
        log_n=st.floats(min_value=0.0, max_value=20.0),
        log_gaps=st.tuples(st.floats(min_value=0.0, max_value=20.0),
                           st.floats(min_value=0.0, max_value=20.0)),
    )
    @example(a=0.1, log_lam=-1.0, log_n=0.0, log_gaps=(0.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_upper_floor_is_unimodal_in_n(self, a, log_lam, log_n, log_gaps):
        # Certificate 2: U(n) = _tail_floor(n*lam, n*w + 1) rises, then falls,
        # at every n >= 1 (n*w < 1 included), so for n < m < m' the middle
        # count's U is at least the smaller end's: a run whose ends exceed
        # the threshold exceeds it throughout.
        lam = 10.0**log_lam
        w = a * lam
        n = int(2.0**log_n)
        m = n + int(2.0**log_gaps[0])
        m2 = m + int(2.0**log_gaps[1])
        floors = [plan._tail_floor(k * lam, k * w + 1.0) for k in (n, m, m2)]
        assert floors[1] >= min(floors[0], floors[2]) * (1.0 - 1e-12)

    @pytest.mark.parametrize("lam", [0.011, 0.1, 0.3, 5.0])
    def test_accepted_windows_against_mpmath(self, lam):
        # Canonical budget at its answer n = 381; each mean lies outside the band.
        budget, n = ErrorBudget(0.1, 0.1, 0.05), EXACT_MIN_N_CANONICAL
        bound = plan._chernoff_miss(n, lam, budget, relative_binds(lam, budget))
        w = max(0.1, 0.1 * lam)
        ref = mpmath.exp(n * g_ref(w, lam))
        if lam == 0.1:
            ref += mpmath.exp(-n * mpf_of(lam))
        elif lam > 0.1:
            ref += mpmath.exp(n * g_ref(-w, lam))
        assert bound == pytest.approx(float(ref), rel=1e-12, abs=0.0)
        assert 1 - coverage_ref(n, lam, 0.1, 0.1) <= ref <= 0.025

    def test_search_skips_only_certified_means(self, monkeypatch):
        # Every window the search leaves unsummed is decided by a certificate,
        # and the kernel agrees with it: a band pass at the answer and a
        # ceiling pass have coverage above 1 - delta, a floor rejection below.
        # The verdicts come from two searches, (0.0625, 0.25, 0.01) and the
        # canonical one: the front mean's floor rejects most of the latter's
        # failing n before certificate 4 sees them.
        budget, n = ErrorBudget(0.1, 0.1, 0.05), EXACT_MIN_N_CANONICAL
        kernel, window_at, verdict = plan._window_mass, plan._window_at, plan._miss_verdict
        counts, summed, decided = [], [], []

        def windowed(count, ratios):
            counts.append(count)
            return window_at(count, ratios)

        def recorded(theta, k_min, k_max):
            summed.append((counts[-1], theta))
            return kernel(theta, k_min, k_max)

        def recorded_verdict(theta, k_min, k_max, delta):
            decided.append((counts[-1], theta, k_min, k_max, delta,
                            verdict(theta, k_min, k_max, delta)))
            return decided[-1][-1]

        monkeypatch.setattr(plan, "_window_at", windowed)
        monkeypatch.setattr(plan, "_window_mass", recorded)
        monkeypatch.setattr(plan, "_miss_verdict", recorded_verdict)
        assert min_sample_size_exact(ErrorBudget(0.0625, 0.25, 0.01)).n == 420
        summed.clear()
        assert min_sample_size_exact(budget).n == n
        passed = [window for *window, v in decided if v is True]
        failed = [window for *window, v in decided if v is False]
        assert len(passed) > 10 and len(failed) > 10
        assert all(kernel(theta, k_min, k_max) > 1.0 - delta
                   for _, theta, k_min, k_max, delta in passed)
        assert all(kernel(theta, k_min, k_max) < 1.0 - delta
                   for _, theta, k_min, k_max, delta in failed)
        target = 1.0 - budget.delta
        at_answer = {theta for count, theta in summed if count == n}
        at_answer |= {theta for count, theta, *_, delta in passed
                      if count == n and delta == budget.delta}
        assert 0 < len(at_answer) < 100
        banded = [lam for lam in default_lambda_grid(budget) if n * lam not in at_answer]
        assert len(banded) > 100
        for lam in banded:
            assert kernel(n * lam, *coverage_window(n, lam, budget)) > target

    @pytest.mark.parametrize(
        "budget, cap",
        [(ErrorBudget(0.1, 0.1, 0.05), 14), (ErrorBudget(0.01, 0.05, 0.01), 67),
         (ErrorBudget(0.1, 0.1, 9.9e-10), 30), (ErrorBudget(0.01, 0.05, 9.9e-10), 430)],
    )
    def test_kernel_sums_per_search(self, monkeypatch, budget, cap):
        # Without any certificate: 587 and 13,435 sums; with the earlier
        # pass-only screen, 412 and 13,251; before the window-end bounds of
        # certificate 4, 55 and 227.  At delta = 9.9e-10 the certificates once
        # switched off below 1e-9, which cost 3,968 and 75,006 sums.
        calls = []
        kernel = plan._window_mass

        def counted(theta, k_min, k_max):
            calls.append(theta)
            return kernel(theta, k_min, k_max)

        monkeypatch.setattr(plan, "_window_mass", counted)
        min_sample_size_exact(budget)
        assert len(calls) <= cap

    @pytest.mark.parametrize("delta, n", [(1e-9, 3761), (1e-12, 5141), (1e-14, 6061)])
    def test_tiny_delta_at_and_below_the_floor(self, monkeypatch, delta, n):
        budget = ErrorBudget(0.1, 0.1, delta)
        assert min_sample_size_exact(budget).n == n
        _uncertified(monkeypatch)
        assert min_sample_size_exact(budget).n == n

    def test_no_certificate_panel(self, monkeypatch):
        budgets = _no_certificate_panel(300, 19)
        certified = [min_sample_size_exact(b).n for b in budgets]
        _uncertified(monkeypatch)
        assert [min_sample_size_exact(b).n for b in budgets] == certified

    def test_bound_inside_the_margin_passes_no_mean(self, monkeypatch):
        # A Chernoff bound above delta - REJECT_MARGIN passes nothing, even
        # one below delta: every mean is summed or decided at its window ends.
        budget = ErrorBudget(0.1, 0.1, 0.05)
        monkeypatch.setattr(plan, "_chernoff_miss",
                            lambda n, lam, b, relative: b.delta - plan.REJECT_MARGIN / 2.0)
        assert min_sample_size_exact(budget).n == EXACT_MIN_N_CANONICAL

    @pytest.mark.parametrize("theta", [1e-2, 0.3, 1.0, 7.5, 40.0, 1e3, 3.3e4, 1e6])
    def test_tail_floors_against_mpmath(self, theta):
        # erfc(sqrt(H))/2 is below Pr{K >= m} for integers m > theta and below
        # Pr{K <= k} for integers k < theta, out to 12 sd; H at a real point
        # past m (or before k) is larger, so the relaxed floor holds too.
        sd = math.sqrt(theta)
        for k in sorted({max(1, round(theta + z * sd)) for z in range(-12, 13)} | {1, 2}):
            if k == theta:
                continue
            floor = plan._tail_floor(theta, k - theta)
            if k > theta:
                tail = 1 - cdf_gamma_ref(theta, k - 1)
                assert plan._tail_floor(theta, k - theta + 0.5) <= floor
            else:
                tail = cdf_gamma_ref(theta, k)
                assert plan._tail_floor(theta, k - theta - 0.5) <= floor
            assert floor <= tail * (1 + 1e-12)

    @pytest.mark.parametrize("theta", [1e-2, 0.3, 1.0, 7.5, 40.0, 1e3, 3.3e4, 1e6])
    def test_miss_ceiling_against_mpmath(self, theta):
        # Each term: erfc(sqrt(H))/2 at a count k is above Pr{K <= k - 1} for
        # k < theta and above Pr{K >= k + 1} for k > theta, out to 12 sd.  The
        # sum: certificate 4 passes a window only where its ceiling is at most
        # delta - REJECT_MARGIN, so at delta a hair below miss + REJECT_MARGIN
        # no window passes (where the miss, 1e-15 or more, survives that sum).
        sd = math.sqrt(theta)
        for k in sorted({max(0, round(theta + z * sd)) for z in range(-12, 13)} | {1, 2}):
            if 1 <= k < theta:
                tail = cdf_gamma_ref(theta, k - 1)
            elif k > theta:
                tail = 1 - cdf_gamma_ref(theta, k)
            else:
                continue
            # A tail below the double range rounds to 0, as the ceiling does.
            assert plan._tail_floor(theta, k - theta) >= float(tail) * (1 - 1e-12)
        for k_min, k_max, miss in _windows_with_miss(theta):
            if k_min < theta < k_max and miss >= 1e-15:
                delta = miss * (1 - 1e-9) + plan.REJECT_MARGIN
                assert plan._miss_verdict(theta, k_min, k_max, delta) is not True, (k_min, k_max)

    @pytest.mark.parametrize("theta", [1e-2, 0.3, 1.0, 7.5, 40.0, 1e3, 3.3e4, 1e6])
    def test_miss_floor_at_window_ends_against_mpmath(self, theta):
        # Certificate 4 rejects a window only where its floor exceeds delta +
        # REJECT_MARGIN, so at delta a hair above miss - REJECT_MARGIN no
        # window is rejected.  delta is negative where the miss is below the
        # margin: the bound is under test, not a budget.  Its terms are
        # test_tail_floors_against_mpmath's, and e^{-theta} = Pr{K = 0}.
        for k_min, k_max, miss in _windows_with_miss(theta):
            if k_min - 1 < theta < k_max + 1 and miss >= 1e-15:
                delta = miss * (1 + 1e-9) - plan.REJECT_MARGIN
                assert plan._miss_verdict(theta, k_min, k_max, delta) is not False, (k_min, k_max)

    @given(
        log_theta=st.floats(min_value=-2.0, max_value=6.0),
        z_min=st.floats(min_value=-12.0, max_value=12.0),
        z_max=st.floats(min_value=-12.0, max_value=12.0),
        far=st.booleans(),
    )
    @example(log_theta=0.0, z_min=-1.0, z_max=0.0, far=True)
    @settings(max_examples=200, deadline=None)
    def test_miss_bounds_bracket_the_kernel(self, log_theta, z_min, z_max, far):
        # Ceiling >= kernel miss - 1e-11 and floor <= kernel miss + 1e-11, on
        # windows out to 12 sd either side (empty ones included), and on ends
        # past the double range.
        theta = 10.0**log_theta
        sd = math.sqrt(theta)
        k_min = max(0, math.floor(theta + z_min * sd))
        k_max = 2**1100 if far else max(k_min - 1, math.floor(theta + z_max * sd))
        miss = 1.0 - plan._window_mass(theta, k_min, k_max)
        assert plan._miss_verdict(theta, k_min, k_max, miss + plan.REJECT_MARGIN - 1e-11) is not True
        assert plan._miss_verdict(theta, k_min, k_max, miss - plan.REJECT_MARGIN + 1e-11) is not False

    def test_window_end_past_the_double_range(self):
        # k_max = 2^1100 is no double: certificate 4 clips it to the span's end
        # before forming k_max - theta, so no OverflowError.  The miss is
        # Pr{K = 0} = 0.0067 at k_min = 1 and Pr{K <= 3} = 0.265 at k_min = 4.
        assert plan._miss_verdict(5.0, 1, 2**1100, 0.05) is True
        assert plan._miss_verdict(5.0, 4, 2**1100, 0.05) is False

    @pytest.mark.parametrize("n", [50, 200, 381, 2000])
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.5, 1.0, 1.000001, 3.0])
    def test_miss_floor_against_mpmath(self, n, lam):
        miss = 1 - coverage_ref(n, lam, 0.1, 0.1)
        assert _miss_floor(n, lam, ErrorBudget(0.1, 0.1, 0.05)) <= miss

    def test_skip_reaching_the_search_cap_raises(self, monkeypatch):
        # Answer 126,970; the skip proves every n up to the cap fails.
        monkeypatch.setattr(plan, "SEARCH_CAP", 50_000)
        with pytest.raises(ResourceLimitError, match="SEARCH_CAP = 50000"):
            min_sample_size_exact(ErrorBudget(3e-4, 0.1, 0.05))

    def test_skip_fires_where_n_times_w_is_below_one(self, monkeypatch):
        # The canonical search's front mean is the boundary lam = 1.0, w = 0.1.
        # Its upper floor exceeds delta + REJECT_MARGIN at the first n tried,
        # 5, where n*w = 0.5: U is unimodal at every n, so one bisection skips
        # to 260, and the answer is unchanged.  Every skip, on the pinned
        # panel too, starts at an n its own key rejects: a run certified by
        # U alone, not by the full floor M(n).
        skips, bisect = [], plan.bisect_left

        def recorded(a, x, lo=0, hi=None, *, key=None):
            if len(a) == plan.SEARCH_CAP + 1:
                skips.append((lo - 1, key(lo - 1)))
            return bisect(a, x, lo, len(a) if hi is None else hi, key=key)

        monkeypatch.setattr(plan, "bisect_left", recorded)
        budget = ErrorBudget(0.1, 0.1, 0.05)
        assert min_sample_size_exact(budget).n == EXACT_MIN_N_CANONICAL
        assert skips[0] == (5, False)
        assert plan._tail_floor(5 * 1.0, 5 * 0.1 + 1.0) > budget.delta + plan.REJECT_MARGIN
        for eps, n in EXACT_MIN_N_PANEL:
            assert min_sample_size_exact(ErrorBudget(*eps)).n == n
        assert len(skips) >= 10 and not any(ended for _, ended in skips)

    def test_skip_stops_at_the_kernel_domain(self):
        # At lam = 1e15 and w = eps_a = 1e6 the upper floor exceeds delta from
        # n = 1 to about 2,700, but theta passes 2^53 at n = 10: the skip ends
        # there, and the kernel names theta = 1e16, as the plain scan would.
        with pytest.raises(ResourceLimitError, match=r"^theta=1e\+16 is outside"):
            min_sample_size_exact(ErrorBudget(1e6, 1e-10, 0.05), grid=[1e15])

    @pytest.mark.parametrize("delta", [9.9e-15, 1e-17, 1e-100])
    def test_delta_below_the_exact_floor_is_refused(self, delta):
        # Below plan.EXACT_DELTA_MIN the rounding of 1 - delta and the span's
        # truncation exceed 2% of delta; 1e-17 answered 7091 like every delta
        # below 5.6e-17, the span's answer rather than the budget's.
        with pytest.raises(ResourceLimitError, match="delta=") as excinfo:
            min_sample_size_exact(ErrorBudget(0.1, 0.1, delta))
        assert excinfo.value.param == "delta"

    def test_small_grid_matches_brute_force(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        # Sorted, then unsorted with a repeated mean (answer 288).
        for grid in ([0.01, 0.3, 0.9, 1.0, 1.1, 4.0, 30.0], [1.33, 0.16, 3.52, 1.33]):
            assert min_sample_size_exact(budget, grid=grid).n == min_n_grid_ref(budget, grid)

    @pytest.mark.parametrize("lam", [1e16, 1e300])
    def test_mean_outside_kernel_domain_still_raises(self, lam):
        # theta = n*lam > 2^53 is never certified, so the kernel names its domain;
        # at 1e16 the Chernoff bounds alone would pass the mean and answer 380.
        with pytest.raises(ResourceLimitError, match="domain theta <= 2\\^53"):
            min_sample_size_exact(ErrorBudget(0.1, 0.1, 0.05), grid=[1.0, lam])

    def test_window_end_past_double_range(self):
        # The second mean's window ends near k = 1e300, far past the span; its
        # Chernoff bound is 0, so the band leaves it out.
        budget = ErrorBudget(1e300, 0.5, 0.05)
        assert min_sample_size_exact(budget, grid=[1.0, 1e-3]).n == 1
        assert plan._chernoff_miss(1, 1e-3, budget, False) == 0.0


def _empty_window_panel(count, seed):
    """Seeded budgets, eps_a log-uniform in [1e-300, 1e-3], each with a grid.

    eps_r is in [0.6, 0.95] and delta in [0.01, 0.1].  Every third budget
    takes the default grid, whose front mean has empty windows past any
    small cap; every third takes 1 to 3 means in [1e-3, 0.1], empty below
    n of about 1/(2*lam); the rest take a mean below eps_a, which passes at
    n = 1, and one in [3e-3, 0.1], which fails and moves to the front.
    """
    rng = random.Random(seed)
    panel = []
    for i in range(count):
        budget = ErrorBudget(10.0 ** rng.uniform(-300, -3), rng.uniform(0.6, 0.95),
                             rng.uniform(0.01, 0.1))
        if i % 3 == 0:
            grid = default_lambda_grid(budget)
        elif i % 3 == 1:
            grid = [10.0 ** rng.uniform(-3, -1) for _ in range(rng.randint(1, 3))]
        else:
            grid = [budget.epsilon_a * rng.uniform(0.01, 0.9), 10.0 ** rng.uniform(-2.5, -1)]
        panel.append((budget, grid))
    return panel


class TestEmptyWindowSkip:
    """The exact search starts past the n whose window at some mean holds no count."""

    def test_matches_plain_scan(self, monkeypatch):
        cap = 2**11
        monkeypatch.setattr(plan, "SEARCH_CAP", cap)
        answered = 0
        for budget, grid in _empty_window_panel(45, 20):
            n = min_n_grid_ref(budget, grid, cap)
            if n is None:
                rhs = formula_sample_size(budget).rhs
                message = (f"the exact search found no feasible n up to SEARCH_CAP = {cap}; "
                           f"the closed-form n is about {rhs:.3g}")
                with pytest.raises(ResourceLimitError) as excinfo:
                    min_sample_size_exact(budget, grid=grid)
                assert str(excinfo.value) == message
            else:
                assert min_sample_size_exact(budget, grid=grid).n == n
                answered += 1
        assert answered >= 20

    def _kernel_calls(self, monkeypatch):
        calls = []
        kernel = plan._window_mass

        def counted(theta, k_lo, k_hi):
            calls.append((k_lo, k_hi))
            return kernel(theta, k_lo, k_hi)

        monkeypatch.setattr(plan, "_window_mass", counted)
        return calls

    @pytest.mark.parametrize("grid", [None, [1e-300]])
    def test_tiny_eps_a_reaches_the_cap_without_a_kernel_call(self, monkeypatch, grid):
        # size --method exact --eps-a 1e-300 --eps-r 0.1 --delta 0.05: the front
        # mean's window is empty at every n <= SEARCH_CAP.  At lam = eps_a the
        # window's lower end is 0 itself, which the strict inequality excludes.
        calls = self._kernel_calls(monkeypatch)
        with pytest.raises(ResourceLimitError, match="SEARCH_CAP = 1048576"):
            min_sample_size_exact(ErrorBudget(1e-300, 0.1, 0.05), grid=grid)
        assert calls == []

    @pytest.mark.parametrize("lam", [0.01, 0.0123, 0.07])
    def test_first_window_holding_a_count_can_be_the_answer(self, lam):
        # At delta = 0.7 one count (mass near 1/e) clears 1 - delta, so the
        # search must land on the first n whose window holds a count.
        budget = ErrorBudget(1e-300, 0.1, 0.7)
        n = min_sample_size_exact(budget, grid=[lam]).n
        assert n == min_n_grid_ref(budget, [lam], 1000)
        assert coverage_window(n - 1, lam, budget) == (1, 0)

    def test_new_front_skips_its_empty_windows(self, monkeypatch):
        # 1e-301 < eps_a would pass at n = 1, but 1e-295, the least mean >= eps_a,
        # has an empty window at every n up to SEARCH_CAP: the search starts
        # past the cap and forms no window at all.
        calls, counts = self._kernel_calls(monkeypatch), []
        window_at = plan._window_at

        def windowed(count, ratios):
            counts.append(count)
            return window_at(count, ratios)

        monkeypatch.setattr(plan, "_window_at", windowed)
        with pytest.raises(ResourceLimitError, match="SEARCH_CAP = 1048576"):
            min_sample_size_exact(ErrorBudget(1e-300, 0.5, 0.05), grid=[1e-301, 1e-295])
        assert calls == []
        assert counts == []


class TestNormalApprox:
    def test_canonical_fixture(self):
        res = normal_approx_sample_size(1.0, 0.1, 0.05)
        assert res.n == 385
        assert res.rhs == pytest.approx(Z_975**2 * 100.0, rel=1e-9, abs=0.0)
        assert res.critical_exponent is None
        assert res.method == "normal_approx"

    def test_unit_tolerance_fixture(self):
        assert normal_approx_sample_size(1.0, 1.0, 0.05).n == 4

    def test_rhs_linear_in_assumed_mean(self):
        r1 = normal_approx_sample_size(1.0, 0.1, 0.05).rhs
        r2 = normal_approx_sample_size(2.0, 0.1, 0.05).rhs
        assert r2 == 2.0 * r1

    @pytest.mark.parametrize("delta", [0.2, 0.05, 1e-6, 1e-16, 1e-17, 1e-100, 1e-300])
    def test_z_is_the_upper_quantile_of_delta_over_2(self, delta):
        # z = -quantile(delta/2): 1 - delta/2 rounds to 1 below delta = 1.1e-16.
        z = stats.norm.isf(delta / 2.0)
        assert normal_approx_sample_size(1.0, 1.0, delta).rhs == pytest.approx(z * z, rel=1e-12, abs=0.0)

    def test_underflowing_tolerance_squared_is_a_resource_limit(self):
        with pytest.raises(ResourceLimitError, match="overflows"):
            normal_approx_sample_size(1.0, 1e-300, 0.05)

    def test_validation(self):
        with pytest.raises(ParameterError):
            normal_approx_sample_size(0.0, 0.1, 0.05)
        with pytest.raises(ParameterError):
            normal_approx_sample_size(1.0, 0.0, 0.05)
        with pytest.raises(ParameterError):
            normal_approx_sample_size(1.0, 0.1, 1.0)


class TestNormalQuantile:
    def test_median_and_symmetry(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), rel=1e-12, abs=0.0)

    def test_canonical_value(self):
        assert normal_quantile(0.975) == pytest.approx(Z_975, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "p", [1e-9, 1e-6, 0.001, 0.02425, 0.3, 0.5, 0.7, 0.97575, 0.999, 1 - 1e-6]
    )
    def test_within_documented_accuracy(self, p):
        assert abs(normal_quantile(p) - float(normal_quantile_ref(p))) < 1e-8

    def test_domain(self):
        for p in (0.0, 1.0, -0.5):
            with pytest.raises(ParameterError):
                normal_quantile(p)


@given(
    ea=st.floats(min_value=1e-3, max_value=10.0),
    er=st.floats(min_value=1e-3, max_value=0.99),
    d=st.floats(min_value=1e-4, max_value=0.5),
)
@settings(max_examples=80, deadline=None)
@example(0.001, 0.001, 0.023137963025333694)
@example(1e8, 1e-312, 0.1)  # subnormal _phi(eps_r), which the strategy cannot draw
def test_formula_and_threshold_agree_property(ea, er, d):
    budget = ErrorBudget(ea, er, d)
    res = formula_sample_size(budget)
    assert is_sufficient(res.n, budget)
    if res.n > 1:
        assert not is_sufficient(res.n - 1, budget)
