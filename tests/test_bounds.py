"""Tests for the exponent function and the Chernoff-type tail bounds."""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonplan import (
    ParameterError,
    chernoff_log_bound,
    chernoff_lower_tail,
    chernoff_upper_tail,
    exact_tail,
    g_exponent,
    tail_bound_abs,
    tail_bound_rel,
)

from poissonplan.bounds import _h

from _oracles import chernoff_ref, g_ref, h_ref, mpf_of

# Frozen high-precision values (mpmath, 60 digits, exact float inputs).
G_1_1 = -0.38629436111989063          # 1 - 2 ln 2
G_01_1 = -0.004841197784757347        # g(0.1, 1.0)
CHERN_UP_1_2 = 0.67957045711476127    # e / 4
TAIL_GEQ_2_AT_1 = 0.26424111765711533  # 1 - 2/e
CHERN_LO_2_1 = 0.73575888234288467    # 2 / e
TAIL_LEQ_1_AT_2 = 0.40600584970983805  # 3 e^{-2}
ABS_LOWER_10_2_1 = 0.046489528076784491  # exp(10 (ln 2 - 1))
REL_LOWER_1_1_HALF = 0.85776388496070677  # exp(-1/2 + (ln 2)/2)


class TestGExponent:
    def test_zero_deviation_is_exactly_zero(self):
        for lam in (0.1, 1.0, 5.0, 123.0):
            assert g_exponent(0.0, lam) == 0.0

    def test_unit_deviation_at_unit_mean(self):
        assert g_exponent(1.0, 1.0) == pytest.approx(G_1_1, rel=1e-14, abs=0.0)

    def test_small_deviation_value(self):
        assert g_exponent(0.1, 1.0) == pytest.approx(G_01_1, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "eps, lam",
        [(0.0, 0.0), (0.0, -1.0), (-1.0, 1.0), (-2.0, 1.5), (float("nan"), 1.0)],
    )
    def test_domain_errors(self, eps, lam):
        with pytest.raises(ParameterError):
            g_exponent(eps, lam)

    @pytest.mark.parametrize(
        "scale",
        [1e-12, 1e-8, 3e-5, 9.9e-5, 1e-4, 1.01e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.2499,
         0.25, 0.2501, 0.3, 0.6, 0.999, 1.0 - 1e-9, 1.0 - 2.0**-52],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 40.0])
    def test_matches_reference_through_series_crossover(self, scale, sign, lam):
        eps = sign * scale * lam
        got = g_exponent(eps, lam)
        ref = float(g_ref(eps, lam))
        assert got == pytest.approx(ref, rel=1e-14, abs=1e-300)

    @given(
        lam=st.floats(min_value=1e-3, max_value=1e3),
        frac=st.floats(min_value=-0.999, max_value=10.0),
    )
    def test_never_positive(self, lam, frac):
        value = g_exponent(frac * lam, lam)
        assert value <= 0.0
        if abs(frac) > 1e-100:  # below that the O(u^2) result underflows to -0.0
            assert value < 0.0

    def test_ordering_upper_above_lower(self):
        # g(eps, lam) > g(-eps, lam) whenever lam > eps > 0.
        for lam in (0.1, 1.0, 10.0, 100.0):
            for q in [0.01 + 0.049 * i for i in range(21)]:
                eps = q * lam
                assert g_exponent(eps, lam) > g_exponent(-eps, lam)

    @given(
        lam=st.floats(min_value=1e-2, max_value=1e3),
        q=st.floats(min_value=1e-6, max_value=0.999),
    )
    def test_ordering_upper_above_lower_property(self, lam, q):
        eps = q * lam
        assert g_exponent(eps, lam) > g_exponent(-eps, lam)

    def test_monotone_in_mean_lower_form(self):
        # g(-eps, lam) increases with lam on (eps, inf).
        for eps in (0.05, 0.5, 2.0):
            lams = [eps * (1.0 + 0.3 * i) for i in range(1, 12)]
            values = [g_exponent(-eps, lam) for lam in lams]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_mean_upper_form(self):
        for eps in (0.05, 0.5, 2.0):
            lams = [10.0 ** (0.25 * i - 2) for i in range(17)]
            values = [g_exponent(eps, lam) for lam in lams]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_relative_form_is_linear_in_mean(self):
        # g(eps*lam, lam) / lam is independent of lam.
        for eps, closed in [
            (0.3, 0.3 - 1.3 * math.log1p(0.3)),
            (-0.3, -0.3 - 0.7 * math.log1p(-0.3)),
            (0.9, 0.9 - 1.9 * math.log1p(0.9)),
            (-0.9, -0.9 - 0.1 * math.log1p(-0.9)),
        ]:
            assert closed < 0.0
            for lam in (0.01, 0.1, 1.0, 10.0, 1000.0):
                assert g_exponent(eps * lam, lam) / lam == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_mean_derivative_signs_match_closed_forms(self):
        h = 1e-6
        for lam in (0.5, 2.0, 50.0):
            for q in (0.1, 0.5, 0.9):
                eps = q * lam
                fd_lower = (g_exponent(-eps, lam + h) - g_exponent(-eps, lam - h)) / (2 * h)
                closed_lower = -math.log1p(-eps / lam) - eps / lam
                assert closed_lower > 0.0
                assert fd_lower == pytest.approx(closed_lower, rel=1e-4, abs=0.0)
                fd_upper = (g_exponent(eps, lam + h) - g_exponent(eps, lam - h)) / (2 * h)
                closed_upper = -math.log1p(eps / lam) + eps / lam
                assert closed_upper > 0.0
                assert fd_upper == pytest.approx(closed_upper, rel=1e-4, abs=0.0)


# u = deviation/mean on both sides of _phi's series cut at |u| = 0.25 and of
# 1e-4, through the band where u - (1+u)*log1p(u) cancels, toward -1 and out
# to 1e3.
_U_SMALL = [1e-12, 1e-8, 9.9e-5, 1.01e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.2499, 0.25, 0.2501, 0.3, 0.6]
U_PANEL = sorted([-u for u in _U_SMALL] + _U_SMALL) + [
    -0.999, -(1.0 - 1e-9), -(1.0 - 2.0**-52), 1.0, 3.7, 10.0, 1e2, 1e3
]


class TestExponentAccuracy:
    """The shared exponent h(u)/u keeps its callers within 1e-14 of mpmath
    (g_exponent: TestGExponent::test_matches_reference_through_series_crossover)."""

    @pytest.mark.parametrize("u", U_PANEL)
    def test_h(self, u):
        assert _h(u) == pytest.approx(float(h_ref(u)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("u", U_PANEL)
    @pytest.mark.parametrize("theta", [0.3, 7.0, 1e4])
    def test_chernoff_log_bound(self, u, theta):
        r = theta * (1.0 + u)
        t, rr = mpf_of(theta), mpf_of(r)
        ref = rr - t - rr * mpmath.log(rr / t)
        assert chernoff_log_bound(theta, r) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


class TestChernoffTails:
    def test_upper_fixture(self):
        assert chernoff_upper_tail(1.0, 2.0) == pytest.approx(CHERN_UP_1_2, rel=1e-13, abs=0.0)

    def test_upper_dominates_exact(self):
        assert exact_tail(1.0, 2.0, "geq") == pytest.approx(TAIL_GEQ_2_AT_1, rel=1e-12, abs=0.0)
        assert chernoff_upper_tail(1.0, 2.0) >= exact_tail(1.0, 2.0, "geq")

    def test_upper_limit_toward_mean(self):
        value = chernoff_upper_tail(10.0, 10.0 + 1e-9)
        assert 0.99 < value <= 1.0
        assert value == pytest.approx(1.0, abs=1e-6)
        # At a resolvable distance the bound is strictly below 1.
        assert chernoff_upper_tail(10.0, 10.0 * (1.0 + 1e-7)) < 1.0

    def test_lower_fixture(self):
        assert chernoff_lower_tail(2.0, 1.0) == pytest.approx(CHERN_LO_2_1, rel=1e-13, abs=0.0)

    def test_lower_dominates_exact(self):
        assert exact_tail(2.0, 1.0, "leq") == pytest.approx(TAIL_LEQ_1_AT_2, rel=1e-12, abs=0.0)
        assert chernoff_lower_tail(2.0, 1.0) >= exact_tail(2.0, 1.0, "leq")

    def test_lower_at_zero_threshold_equals_point_mass(self):
        assert chernoff_lower_tail(3.0, 0.0) == math.exp(-3.0)

    @pytest.mark.parametrize("theta, r", [(1.0, 1.0), (1.0, 0.5), (2.0, 2.0)])
    def test_upper_requires_r_above_theta(self, theta, r):
        with pytest.raises(ParameterError):
            chernoff_upper_tail(theta, r)

    @pytest.mark.parametrize("theta, r", [(1.0, 1.0), (1.0, 2.0), (2.0, -0.5)])
    def test_lower_requires_r_below_theta(self, theta, r):
        with pytest.raises(ParameterError):
            chernoff_lower_tail(theta, r)

    def test_bad_theta(self):
        for fn in (chernoff_upper_tail, chernoff_lower_tail):
            with pytest.raises(ParameterError):
                fn(0.0, 1.0)

    def test_dominance_sweep_both_tails(self):
        for theta in (0.5, 1.0, 2.0, 5.0, 20.0):
            r = math.floor(theta) + 1
            while True:
                exact = exact_tail(theta, float(r), "geq")
                if exact <= 1e-12:
                    break
                assert chernoff_upper_tail(theta, float(r)) - exact >= -1e-12
                r += 1
            for r in range(0, math.ceil(theta)):
                if not r < theta:
                    continue
                exact = exact_tail(theta, float(r), "leq")
                if exact <= 1e-12:
                    continue
                assert chernoff_lower_tail(theta, float(r)) - exact >= -1e-12

    @given(
        theta=st.floats(min_value=1e-2, max_value=1e4),
        ratio=st.floats(min_value=1.0 + 1e-9, max_value=50.0),
    )
    def test_log_bound_matches_reference(self, theta, ratio):
        r = theta * ratio
        got = chernoff_log_bound(theta, r)
        ref = float(
            mpf_of(r) - mpf_of(theta) - mpf_of(r) * mpmath.log(mpf_of(r) / mpf_of(theta))
        )
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)


class TestMeanDeviationBounds:
    def test_abs_upper_equals_single_variable_bound(self):
        assert tail_bound_abs(1, 1.0, 1.0, "upper") == pytest.approx(
            chernoff_upper_tail(1.0, 2.0), rel=1e-12, abs=0.0
        )

    def test_abs_lower_fixture(self):
        assert tail_bound_abs(10, 2.0, 1.0, "lower") == pytest.approx(
            ABS_LOWER_10_2_1, rel=1e-13, abs=0.0
        )

    def test_abs_vanishing_deviation_gives_trivial_bound(self):
        assert tail_bound_abs(5, 3.0, 1e-12, "upper") == pytest.approx(1.0, abs=1e-9)

    def test_abs_consistency_with_summed_count_bound(self):
        # The n-sample bound equals the one-variable bound at theta = n*lam,
        # r = n*(lam -+ eps).
        for n in (1, 7, 100):
            for lam in (0.3, 2.0, 11.0):
                for q in (0.2, 0.8):
                    eps = q * lam
                    upper = tail_bound_abs(n, lam, eps, "upper")
                    assert upper == pytest.approx(
                        math.exp(chernoff_log_bound(n * lam, n * (lam + eps))), rel=1e-12, abs=0.0
                    )
                    lower = tail_bound_abs(n, lam, eps, "lower")
                    assert lower == pytest.approx(
                        math.exp(chernoff_log_bound(n * lam, n * (lam - eps))), rel=1e-12, abs=0.0
                    )

    def test_abs_domain_errors(self):
        with pytest.raises(ParameterError):
            tail_bound_abs(1, 1.0, 1.0, "lower")  # needs lam > eps
        with pytest.raises(ParameterError):
            tail_bound_abs(1, 1.0, 0.0, "upper")
        with pytest.raises(ParameterError):
            tail_bound_abs(0, 1.0, 0.5, "upper")
        with pytest.raises(ParameterError):
            tail_bound_abs(1, 1.0, 0.5, "sideways")

    def test_rel_lower_fixture(self):
        assert tail_bound_rel(1, 1.0, 0.5, "lower") == pytest.approx(
            REL_LOWER_1_1_HALF, rel=1e-13, abs=0.0
        )

    def test_rel_upper_matches_abs_at_unit_mean(self):
        assert tail_bound_rel(1, 1.0, 1.0, "upper") == pytest.approx(
            tail_bound_abs(1, 1.0, 1.0, "upper"), rel=1e-13, abs=0.0
        )

    def test_rel_vanishing_deviation_gives_trivial_bound(self):
        for side in ("lower", "upper"):
            assert tail_bound_rel(3, 2.0, 1e-12, side) == pytest.approx(1.0, abs=1e-9)

    def test_rel_domain_errors(self):
        with pytest.raises(ParameterError):
            tail_bound_rel(1, 1.0, 1.0, "lower")  # lower needs eps < 1
        with pytest.raises(ParameterError):
            tail_bound_rel(1, 1.0, -0.1, "upper")
        with pytest.raises(ParameterError):
            tail_bound_rel(1, 0.0, 0.5, "upper")

    @given(
        n=st.integers(min_value=1, max_value=500),
        lam=st.floats(min_value=1e-2, max_value=50.0),
        q=st.floats(min_value=1e-4, max_value=0.99),
    )
    @settings(max_examples=60)
    @example(n=271, lam=16.5, q=0.625)  # rel = 4.1426e-319, about 16 bits
    @example(n=265, lam=16.5, q=0.62109375)  # rel = 1.81e-308, about 51 bits
    @example(n=200, lam=33.5, q=0.494140625)  # just below the smallest normal too
    def test_rel_equals_abs_at_scaled_deviation(self, n, lam, q):
        rel = tail_bound_rel(n, lam, q, "upper")
        ref = float(mpf_of(n) * g_ref(q * lam, lam))
        if math.exp(ref) < 2.0**-1050:
            # Below 2^-1050 a subnormal carries fewer than 24 bits, so its
            # log can miss the exponent by more than 1e-9 relative; compare
            # values instead, to within a few subnormal spacings of 5e-324.
            assert abs(rel - math.exp(ref)) <= 4 * 5e-324
            return
        assert math.log(rel) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_chernoff_reference_agreement_on_fixture_grid():
    for theta, r in [(0.5, 3.0), (1.0, 2.0), (2.0, 1.0), (5.0, 0.5), (20.0, 33.0), (100.0, 64.0)]:
        got = math.exp(chernoff_log_bound(theta, r))
        assert got == pytest.approx(float(chernoff_ref(theta, r)), rel=1e-12, abs=0.0)
