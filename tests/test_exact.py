"""Tests for the exact Poisson oracle: pmf, cdf, tails, and coverage."""

import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonplan import (
    ErrorBudget,
    ParameterError,
    ResourceLimitError,
    CaseLabel,
    chernoff_log_bound,
    coverage_window,
    exact_coverage,
    exact_tail,
    poisson_cdf,
    poisson_pmf,
    tail_bound_abs,
    tail_bound_rel,
)
from poissonplan import exact
from poissonplan.exact import (
    TERM_CAP,
    THETA_MAX,
    _anchored_sum,
    _span,
    _window_mass,
)

from _oracles import (
    cdf_gamma_ref,
    cdf_ref,
    coverage_ref,
    mass_exactish,
    pmf_ref,
    tail_ref,
    window_ref,
)

E_INV = 0.36787944117144233
PMF_2_0 = 0.1353352832366127
CDF_1_1 = 0.73575888234288467
COV_1_3_HALF = 0.22404180765538775   # pmf(3; theta=3) = 27 e^{-3} / 6


class TestPmf:
    def test_zero_count_is_exponential(self):
        assert poisson_pmf(2.0, 0) == pytest.approx(PMF_2_0, rel=1e-14, abs=0.0)
        for theta in (0.03, 1.0, 17.0, 650.0):
            assert poisson_pmf(theta, 0) == math.exp(-theta)

    def test_unit_fixture(self):
        assert poisson_pmf(1.0, 1) == pytest.approx(E_INV, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 7.5])
    def test_matches_bruteforce_product_for_small_counts(self, theta):
        for k in range(0, 21):
            brute = theta**k * math.exp(-theta) / math.factorial(k)
            assert poisson_pmf(theta, k) == pytest.approx(brute, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "theta",
        [1e-3, 0.07, 0.5, 2.0, 17.3, 100.0, 1234.5, 2304.0, 4.0e4, 4.31e5, 1.0e6,
         1.0e7 + 0.5, 3.3e9, 1e11],
    )
    def test_matches_reference_across_scales(self, theta):
        # Counts 3 to 12 sd from the mode; at 2304 = 48^2 the +12 sd count
        # sits on _phi's series cut, u = 0.25.
        sd = math.sqrt(theta)
        ks = sorted(
            {
                int(k)
                for k in (
                    0, 1, 2, 3, 5, 10,
                    theta * 0.5,
                    theta,
                    theta * 1.5,
                    *(int(theta) + round(z * sd) for z in (-12, -7, -3, 3, 7, 12)),
                )
                if k >= 0
            }
        )
        for k in ks:
            ref = pmf_ref(theta, k)
            if ref < 1e-290:
                continue
            assert poisson_pmf(theta, k) == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    def test_deep_tail_error_tracks_the_exponent(self):
        # exp turns an absolute error in the exponent into a relative one in
        # the pmf, so deep in a tail the bound grows with |ln pmf|: 5e-15 of it
        # is an exponent good to about 20 ulps.  Deviations |u| in [0.15, 0.5]
        # straddle _phi's series cut at 0.25, down to pmf = 1e-300.
        rng = random.Random(15)
        checked = 0
        while checked < 1000:
            theta = 10.0 ** rng.uniform(3.0, 5.5)
            k = round(theta * (1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.5)))
            ref = pmf_ref(theta, k)
            if ref < 1e-300:
                continue
            checked += 1
            bound = 1e-13 - 5e-15 * float(mpmath.log(ref))
            assert abs(poisson_pmf(theta, k) / float(ref) - 1.0) <= bound, (theta, k)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            poisson_pmf(0.0, 1)
        with pytest.raises(ParameterError):
            poisson_pmf(-2.0, 1)
        with pytest.raises(ParameterError):
            poisson_pmf(1.0, -1)
        with pytest.raises(ParameterError):
            poisson_pmf(1.0, 1.5)

    def test_underflow_returns_zero(self):
        assert poisson_pmf(1.0, 500) == 0.0


class TestCdf:
    def test_fixture(self):
        assert poisson_cdf(1.0, 1) == pytest.approx(CDF_1_1, rel=1e-14, abs=0.0)

    def test_negative_count_is_zero(self):
        assert poisson_cdf(3.0, -1) == 0.0
        assert poisson_cdf(3.0, -7) == 0.0

    def test_far_right_is_one_within_tolerance(self):
        assert poisson_cdf(2.0, 40) == pytest.approx(1.0, abs=1e-13)

    def test_huge_count_is_truncated_not_summed(self):
        # Must finish fast and return 1 even for an absurd count.
        assert poisson_cdf(2.0, 10**7) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize(
        "theta, k",
        [(0.5, 0), (1.0, 3), (2.0, 1), (20.0, 15), (100.0, 70), (100.0, 130), (1000.0, 1000)],
    )
    def test_matches_reference(self, theta, k):
        assert poisson_cdf(theta, k) == pytest.approx(float(cdf_ref(theta, k)), abs=1e-13)

    @pytest.mark.parametrize("k", [90_000, 98_000, 99_000, 100_000, 101_000])
    def test_large_mean_matches_reference(self, k):
        # The sum starts at the certified lower cut, not at k = 0.
        theta = 1e5
        assert poisson_cdf(theta, k) == pytest.approx(float(cdf_gamma_ref(theta, k)), abs=1e-13)

    def test_monotone_and_bounded(self):
        values = [poisson_cdf(7.0, k) for k in range(0, 40)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestNormalization:
    @pytest.mark.parametrize("theta", [0.5, 2.0, 20.0, 100.0, 1e3, 1e5])
    def test_total_mass_is_one(self, theta):
        # Truncation point certified by the upper Chernoff bound < 1e-13.
        cut = int(theta + 10 * math.sqrt(theta) + 35)
        while chernoff_log_bound(theta, float(cut)) >= math.log(1e-13):
            cut = int(1.25 * cut) + 10
        total = mass_exactish(theta, 0, cut)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestExactTail:
    def test_upper_fixture(self):
        assert exact_tail(1.0, 2.0, "geq") == pytest.approx(1.0 - 2.0 * E_INV, rel=1e-12, abs=0.0)

    def test_lower_fixture(self):
        assert exact_tail(2.0, 1.0, "leq") == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12, abs=0.0)

    def test_zero_threshold_lower(self):
        assert exact_tail(5.0, 0.0, "leq") == pytest.approx(math.exp(-5.0), rel=1e-13, abs=0.0)

    def test_zero_threshold_upper_is_total_mass(self):
        assert exact_tail(5.0, 0.0, "geq") == pytest.approx(1.0, abs=1e-13)

    def test_non_integer_thresholds_round_inward(self):
        assert exact_tail(1.0, 1.5, "geq") == exact_tail(1.0, 2.0, "geq")
        assert exact_tail(2.0, 1.5, "leq") == exact_tail(2.0, 1.0, "leq")

    def test_side_validation(self):
        with pytest.raises(ParameterError):
            exact_tail(1.0, 1.0, "ge")

    @pytest.mark.parametrize("theta", [0.5, 2.0, 20.0])
    def test_matches_reference_both_sides(self, theta):
        for r in range(0, int(theta + 5 * math.sqrt(theta) + 10)):
            got = exact_tail(theta, float(r), "geq")
            ref = float(tail_ref(theta, r, "geq"))
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-13)
            got = exact_tail(theta, float(r), "leq")
            ref = float(tail_ref(theta, r, "leq"))
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_deep_tail_keeps_relative_accuracy(self):
        got = exact_tail(2.0, 20.0, "geq")
        ref = float(tail_ref(2.0, 20, "geq"))
        assert ref < 1e-12  # genuinely deep
        assert got == pytest.approx(ref, rel=1e-9, abs=0.0)


class TestDominanceAgainstBounds:
    def test_mean_deviation_bounds_dominate_exact_probabilities(self):
        for n in (1, 10, 100):
            for lam in (0.1, 1.0, 10.0):
                theta = n * lam
                for q in (0.1, 0.3, 0.5, 0.7, 0.9):
                    eps = q * lam
                    exact_lo = exact_tail(theta, n * (lam - eps), "leq")
                    assert exact_lo <= tail_bound_abs(n, lam, eps, "lower") + 1e-12
                    exact_hi = exact_tail(theta, n * (lam + eps), "geq")
                    assert exact_hi <= tail_bound_abs(n, lam, eps, "upper") + 1e-12
                    exact_rlo = exact_tail(theta, n * lam * (1 - q), "leq")
                    assert exact_rlo <= tail_bound_rel(n, lam, q, "lower") + 1e-12
                    exact_rhi = exact_tail(theta, n * lam * (1 + q), "geq")
                    assert exact_rhi <= tail_bound_rel(n, lam, q, "upper") + 1e-12


class TestCoverageWindow:
    def test_integral_endpoints_are_excluded(self):
        # n*(lam - w) = 2 and n*(lam + w) = 4 exactly: K = 2 and K = 4 are out.
        budget = ErrorBudget(0.5, 0.1, 0.05)
        k_min, k_max = coverage_window(2, 1.5, budget)
        assert (k_min, k_max) == (3, 3)

    def test_non_integral_endpoints_include_interior(self):
        budget = ErrorBudget(0.5, 0.1, 0.05)
        k_min, k_max = coverage_window(1, 3.0, budget)
        assert (k_min, k_max) == (3, 3)

    def test_low_edge_clamps_to_zero(self):
        budget = ErrorBudget(10.0, 0.1, 0.05)
        k_min, k_max = coverage_window(1, 1.0, budget)
        assert k_min == 0
        assert k_max == 10

    def test_empty_window(self):
        budget = ErrorBudget(0.05, 0.01, 0.05)
        k_min, k_max = coverage_window(1, 0.5, budget)
        assert k_min == k_max + 1

    def test_validation(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        with pytest.raises(ParameterError):
            coverage_window(0, 1.0, budget)
        with pytest.raises(ParameterError):
            coverage_window(1, 0.0, budget)
        with pytest.raises(ParameterError):
            coverage_window(1, float("inf"), budget)
        with pytest.raises(ParameterError):
            coverage_window(1, float("nan"), budget)

    @given(
        n=st.integers(min_value=1, max_value=10**6),
        lam=st.floats(min_value=1e-6, max_value=1e6),
        eps_a=st.floats(min_value=1e-4, max_value=10.0),
        eps_r=st.floats(min_value=1e-4, max_value=0.999),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_arithmetic_matches_rational_oracle(self, n, lam, eps_a, eps_r):
        budget = ErrorBudget(eps_a, eps_r, 0.05)
        assert coverage_window(n, lam, budget) == window_ref(n, lam, eps_a, eps_r)

    @given(
        n=st.integers(min_value=1, max_value=10**6),
        eps_a=st.floats(min_value=1e-4, max_value=10.0),
        eps_r=st.floats(min_value=1e-4, max_value=0.999),
        k=st.integers(min_value=1, max_value=20),
        where=st.sampled_from(["abs_edge", "rel_boundary", "exact_tie"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_regime_boundaries_match_rational_oracle(self, n, eps_a, eps_r, k, where):
        if where == "abs_edge":
            lam = eps_a
        elif where == "rel_boundary":
            lam = eps_a / eps_r  # rounded: on either side of the true boundary
        else:
            # eps_r = 2^-k and lam = eps_a * 2^k: the absolute and relative
            # half-widths are equal as rationals, not just as floats.
            eps_r, lam = 2.0**-k, eps_a * 2.0**k
        budget = ErrorBudget(eps_a, eps_r, 0.05)
        assert coverage_window(n, lam, budget) == window_ref(n, lam, eps_a, eps_r)

    @given(
        m=st.integers(min_value=1, max_value=50),
        p=st.integers(min_value=0, max_value=12),
        i=st.integers(min_value=1, max_value=10**4),
        j=st.integers(min_value=1, max_value=10**4),
        relative=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_endpoints_landing_on_integers_are_excluded(self, m, p, i, j, relative):
        lam = i * 2.0**-p
        if relative:
            # eps_r = j' / 2^14 binds; n*lam*(1 -+ eps_r) = m*i*(2^14 -+ j').
            j = j % (2**14 - 1) + 1
            eps_a, eps_r, n = 2.0**-40, j * 2.0**-14, m * 2 ** (p + 14)
            lo, hi = m * i * (2**14 - j), m * i * (2**14 + j)
        else:
            # eps_a = j / 2^p binds; n*(lam -+ eps_a) = m*(i -+ j).
            eps_a, eps_r, n = j * 2.0**-p, 2.0**-20, m * 2**p
            lo, hi = m * (i - j), m * (i + j)
        window = coverage_window(n, lam, ErrorBudget(eps_a, eps_r, 0.05))
        assert window == (max(0, lo + 1), hi - 1)
        assert window == window_ref(n, lam, eps_a, eps_r)


class TestExactCoverage:
    def test_single_count_window(self):
        point = exact_coverage(1, 1.0, ErrorBudget(1.0, 0.5, 0.05))
        assert (point.k_min, point.k_max) == (1, 1)
        assert point.coverage == pytest.approx(E_INV, rel=1e-13, abs=0.0)
        assert point.case is CaseLabel.II

    @pytest.mark.parametrize(
        "lam, case", [(1.0, CaseLabel.III), (2.0, CaseLabel.IV), (0.05, CaseLabel.I)]
    )
    def test_regime_decided_once(self, monkeypatch, lam, case):
        # lam = 1.0 ties: 0.1*1.0 rounds to epsilon_a and the integer ratios decide.
        decide = exact.relative_binds
        calls = []

        def counted(x, budget):
            calls.append(x)
            return decide(x, budget)

        monkeypatch.setattr(exact, "relative_binds", counted)
        point = exact_coverage(762, lam, ErrorBudget(0.1, 0.1, 0.05))
        assert (point.case, calls) == (case, [lam])

    def test_wide_window_near_total_mass(self):
        point = exact_coverage(1, 1.0, ErrorBudget(10.0, 0.1, 0.05))
        assert point.coverage >= 0.9999999

    def test_offset_single_count_window(self):
        point = exact_coverage(1, 3.0, ErrorBudget(0.5, 0.1, 0.05))
        assert point.coverage == pytest.approx(COV_1_3_HALF, rel=1e-13, abs=0.0)

    def test_empty_window_is_zero_coverage(self):
        point = exact_coverage(1, 0.5, ErrorBudget(0.05, 0.01, 0.05))
        assert point.coverage == 0.0
        assert point.k_min == point.k_max + 1

    def test_coverage_equals_cdf_difference(self):
        for n, lam, budget in [
            (762, 1.0, ErrorBudget(0.1, 0.1, 0.05)),
            (50, 3.3, ErrorBudget(0.2, 0.15, 0.1)),
            (5, 0.8, ErrorBudget(0.3, 0.5, 0.2)),
        ]:
            point = exact_coverage(n, lam, budget)
            theta = n * lam
            via_cdf = poisson_cdf(theta, point.k_max) - poisson_cdf(theta, point.k_min - 1)
            assert point.coverage == pytest.approx(via_cdf, abs=1e-11)

    @pytest.mark.parametrize(
        "n, lam, eps_a, eps_r",
        [(762, 1.0, 0.1, 0.1), (13, 0.37, 0.21, 0.4), (200, 7.7, 0.5, 0.05)],
    )
    def test_matches_reference(self, n, lam, eps_a, eps_r):
        point = exact_coverage(n, lam, ErrorBudget(eps_a, eps_r, 0.05))
        assert (point.k_min, point.k_max) == window_ref(n, lam, eps_a, eps_r)
        assert point.coverage == pytest.approx(
            float(coverage_ref(n, lam, eps_a, eps_r)), abs=1e-12
        )

    @given(
        n=st.integers(min_value=1, max_value=400),
        lam=st.floats(min_value=1e-3, max_value=50.0),
        eps_a=st.floats(min_value=1e-3, max_value=5.0),
        eps_r=st.floats(min_value=1e-3, max_value=0.99),
        grow=st.floats(min_value=1.0 + 1e-6, max_value=4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_window_widens_with_either_tolerance(self, n, lam, eps_a, eps_r, grow):
        base = coverage_window(n, lam, ErrorBudget(eps_a, eps_r, 0.05))
        wider_a = coverage_window(n, lam, ErrorBudget(eps_a * grow, eps_r, 0.05))
        wider_r = coverage_window(n, lam, ErrorBudget(eps_a, min(eps_r * grow, 0.999), 0.05))
        for wider in (wider_a, wider_r):
            assert wider[0] <= base[0]
            assert wider[1] >= base[1]

    @given(
        n=st.integers(min_value=1, max_value=400),
        lam=st.floats(min_value=1e-3, max_value=50.0),
        eps_a=st.floats(min_value=1e-3, max_value=5.0),
        eps_r=st.floats(min_value=1e-3, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_mixed_event_equals_union_of_pure_events(self, n, lam, eps_a, eps_r):
        # The absolute-only and relative-only windows are nested, so the
        # union window is the wider of the two.
        budget = ErrorBudget(eps_a, eps_r, 0.05)
        lam_q = Fraction(lam)

        def window(width):
            k_min = max(0, math.floor(n * (lam_q - width)) + 1)
            k_max = math.ceil(n * (lam_q + width)) - 1
            return k_min, k_max

        abs_w = window(Fraction(eps_a))
        rel_w = window(Fraction(eps_r) * lam_q)
        union = (min(abs_w[0], rel_w[0]), max(abs_w[1], rel_w[1]))
        assert coverage_window(n, lam, budget) == union

    @given(
        n=st.integers(min_value=1, max_value=1000),
        lam=st.floats(min_value=1e-4, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_in_unit_interval(self, n, lam):
        point = exact_coverage(n, lam, ErrorBudget(0.1, 0.1, 0.05))
        assert 0.0 <= point.coverage <= 1.0

    def test_full_mass_window_clamps_to_one(self):
        # Term rounding can push the summed mass one ulp above 1; the
        # reported coverage must stay in [0, 1].
        point = exact_coverage(762, 0.0010595601792776159, ErrorBudget(0.1, 0.1, 0.05))
        assert point.coverage == 1.0


class TestWindowMassInternals:
    @pytest.mark.parametrize(
        "theta, lo, hi",
        [
            (762.0, 686, 838),
            (10.0, 5, 15),
            (1e5, 99000, 101000),
            (430940.0, 400000, 440000),
            (3.0, 0, 2),
            # More than one 65,536-term block above or below the anchor,
            # with mass near 1/2 so a block boundary error cannot hide in
            # the clamp at 1.
            (1e8, 100_000_000, 100_070_000),
            (1e8, 99_930_000, 100_000_000),
        ],
    )
    def test_fast_path_matches_compensated_sum(self, theta, lo, hi):
        assert _window_mass(theta, lo, hi) == pytest.approx(
            mass_exactish(theta, lo, hi), abs=1e-11
        )

    def test_degenerate_and_far_windows(self):
        assert _window_mass(5.0, 3, 2) == 0.0
        assert _window_mass(5.0, 500, 600) == 0.0  # certified-negligible tail

    def test_narrow_window_matches_reference(self):
        # Fewer than 64 terms: the scalar recurrence, anchored off-window.
        for theta, lo, hi in [(762.0, 700, 730), (50.0, 0, 10), (1e5, 100_500, 100_540)]:
            ref = float(cdf_gamma_ref(theta, hi) - cdf_gamma_ref(theta, lo - 1))
            assert _window_mass(theta, lo, hi) == pytest.approx(ref, rel=1e-13, abs=1e-16)

    def test_term_cap_and_domain_raise_before_summing(self, monkeypatch):
        # The cap counts the terms a side sums, not the window: the upper
        # tail from theta + 1 at theta = 5e13 has about 7.07e7 terms to sum.
        monkeypatch.setattr(exact, "_run", lambda *args: pytest.fail("summed"))
        with pytest.raises(ResourceLimitError, match="cap"):
            _window_mass(5e13, 50_000_000_000_001, 10**15)
        assert TERM_CAP >= 2**26
        for theta in (THETA_MAX * 2.0, math.inf):
            with pytest.raises(ResourceLimitError, match="domain"):
                _window_mass(theta, 0, 10)
        assert _window_mass(math.inf, 10, 9) == 0.0  # empty windows need no theta

    @pytest.mark.parametrize("theta", [1.5e13, THETA_MAX])
    def test_window_covering_span_past_term_cap_is_one(self, theta):
        # The span has more terms than TERM_CAP, but its complement is empty.
        lc, uc = _span(theta)
        assert uc - lc >= TERM_CAP
        assert _window_mass(theta, lc, uc) == 1.0
        assert _window_mass(theta, 0, 2 * uc) == 1.0

    def test_half_tail_at_1e11_matches_mpmath(self):
        # About 3.2e6 terms above the mode, in anchored pieces of 65,536.
        theta = 1e11
        ref = HALF_TAIL_1E11
        got = _window_mass(theta, int(theta) + 1, _span(theta)[1])
        assert got == pytest.approx(float(ref), abs=2e-15)

    def test_mean_past_double_range_is_outside_domain(self):
        # n*lam with n = 10**400 cannot be formed as a double at all.
        with pytest.raises(ResourceLimitError, match="domain"):
            exact_coverage(10**400, 1.0, ErrorBudget(0.1, 0.1, 0.05))


# Log-spaced means over the whole double range of the kernel, then fine
# steps where lc leaves 0 (theta = -ln(1e-16) = 36.84) and where the lower
# guess theta - 10 sqrt(theta) - 35 crosses 0 (theta = 162.6).
_LOG_CUT = math.log(1e-16)
SPAN_THETAS = (
    [10.0 ** (-300 + i * (300 + 53 * math.log10(2)) / 19_999) for i in range(20_000)]
    + [30.0 + 0.01 * i for i in range(1_500)]
    + [150.0 + 0.01 * i for i in range(2_500)]
    + [math.nextafter(-_LOG_CUT, 0.0), -_LOG_CUT, math.nextafter(-_LOG_CUT, 99.0), THETA_MAX]
)


def test_span_is_certified_by_the_chernoff_bound():
    bad = []
    for theta in SPAN_THETAS:
        lc, uc = _span(theta)
        ok = lc <= theta < uc and chernoff_log_bound(theta, float(uc)) < _LOG_CUT
        if lc >= 1:
            ok = ok and chernoff_log_bound(theta, float(lc - 1)) < _LOG_CUT
        else:  # lc = 0 only while Pr{K = 0} = e^-theta is not negligible
            ok = ok and -theta >= _LOG_CUT
        if not ok:
            bad.append((theta, lc, uc))
    assert bad == []


# mpmath's gammainc takes seconds at theta = 1e11, so its three values there
# are frozen, as mpmath prints them at the oracle's mp.dps = 60:
#   HALF_TAIL_1E11 = 1 - cdf_gamma_ref(1e11, 10**11)
#   SWITCH_CDF_1E11 = (cdf_gamma_ref(1e11, lo - 1), cdf_gamma_ref(1e11, hi))
# with lo = 99998418844 and hi = 100001581156, _switch_case's window at 1e11.
HALF_TAIL_1E11 = mpmath.mpf("0.499999158955825994354651473291119707385110624088588277630088042")
SWITCH_CDF_1E11 = (
    mpmath.mpf("0.000000286549709392573902615644007048315597867361491875594921000674866"),
    mpmath.mpf("0.999999713412688879389317415712166189117296763420242305620772191"),
)


@functools.lru_cache(maxsize=None)
def _switch_case(theta):
    """(lc, uc, lo, hi, cdf(lo - 1), cdf(hi)) for the route-switch window at theta.

    [lc, uc] is the certified span and [lo, hi] the narrowest window centred
    in it whose complement in the span has fewer terms.  The two mpmath
    values serve every test below; at 1e11 they are SWITCH_CDF_1E11.
    """
    lc, uc = _span(theta)
    span = uc - lc + 1
    width = span // 2 + 1
    lo = lc + (span - width) // 2
    hi = lo + width - 1
    if theta == 1e11:
        assert (lo, hi) == (99998418844, 100001581156)
        return (lc, uc, lo, hi, *SWITCH_CDF_1E11)
    return lc, uc, lo, hi, cdf_gamma_ref(theta, lo - 1), cdf_gamma_ref(theta, hi)


class TestShorterSide:
    """A window holding the mode and over half the certified span is 1 - its complement."""

    THETAS = [1e3, 1e5, 1e7, 1e9, 1e11]

    @pytest.mark.parametrize("theta", THETAS)
    def test_window_spanning_both_cuts_is_exactly_one(self, theta):
        lc, uc = _span(theta)
        assert _window_mass(theta, lc, uc) == 1.0
        assert _window_mass(theta, 0, 2 * uc) == 1.0

    @pytest.mark.parametrize("theta", THETAS)
    def test_window_crossing_one_cut(self, theta):
        lc, uc, lo, hi, below, upto = _switch_case(theta)
        # [0, hi] is clipped at the lower cut; its complement is [hi+1, uc].
        assert _window_mass(theta, 0, hi) == pytest.approx(float(upto), abs=1e-14)
        # [lo, 10 uc] is clipped at the upper cut; its complement is [lc, lo-1].
        assert _window_mass(theta, lo, 10 * uc) == pytest.approx(1.0 - float(below), abs=1e-14)

    @pytest.mark.parametrize("theta", THETAS)
    def test_route_switch_and_one_term_either_side(self, theta):
        lc, uc, lo, hi, below, upto = _switch_case(theta)
        width = hi - lo + 1
        assert (lo - lc) + (uc - hi) < width  # [lo, hi] is 1 - its complement ...
        assert (lo - lc) + (uc - hi) + 1 >= width - 1  # ... and [lo, hi - 1] is summed
        mass = upto - below
        for k_hi, ref in [
            (hi - 1, mass - pmf_ref(theta, hi)),
            (hi, mass),
            (hi + 1, mass + pmf_ref(theta, hi + 1)),
        ]:
            assert _window_mass(theta, lo, k_hi) == pytest.approx(float(ref), abs=1e-14)

    @given(
        log_theta=st.floats(min_value=2.0, max_value=8.0),
        lo_frac=st.floats(min_value=-0.2, max_value=0.5),
        hi_frac=st.floats(min_value=0.5, max_value=1.2),
    )
    @settings(max_examples=100, deadline=None)
    def test_chosen_route_matches_forced_direct_sum(self, log_theta, lo_frac, hi_frac):
        theta = 10.0**log_theta
        lc, uc = _span(theta)
        span = uc - lc + 1
        k_lo = max(0, lc + math.floor(lo_frac * span))
        k_hi = lc + math.floor(hi_frac * span)
        direct = min(_anchored_sum(theta, max(k_lo, lc), min(k_hi, uc)), 1.0)
        got = _window_mass(theta, k_lo, k_hi)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(direct, abs=1e-13)
