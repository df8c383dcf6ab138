"""Tests for the seeded Monte Carlo coverage estimator and its inverse-cdf table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence
from scipy import stats as sps

from poissonplan import (
    ErrorBudget,
    ParameterError,
    ResourceLimitError,
    SimConfig,
    SimResult,
    TRIALS_CAP,
    coverage_window,
    exact_coverage,
    poisson_pmf,
    simulate_coverage,
)
from poissonplan.exact import _span
from poissonplan.simulate import GENERATOR_ID, TABLE_CAP, _hits, _table, _word, _word_range

E_INV = 0.36787944117144233

# (trials, seed, n, lam, (eps_a, eps_r, delta), hits), recorded while the
# samplers still drew every count through a guide index over the cdf table.
# A change to any of them changes the stream GENERATOR_ID names.
PINNED_HITS = [
    (10**6, 7, 762, 1.0, (0.1, 0.1, 0.05), 994374),
    (10**6, 42, 1, 1.0, (1.0, 0.5, 0.05), 368012),
    (131073, 5, 2, 1.5, (0.5, 0.2, 0.1), 29265),
    (200000, 13, 100, 2.0, (0.5, 0.1, 0.05), 199903),
    (10**6, 3, 3000, 2000.0, (1.0, 0.05, 0.01), 1000000),
    (65537, 9, 5, 1e-3, (1e-4, 0.5, 0.05), 0),  # empty window (1, 0)
    (100000, 11, 1, 0.01, (1e6, 0.5, 0.05), 100000),  # ends past the table's sentinel
    (70000, 17, 1, 50.0, (60.0, 0.5, 0.05), 70000),  # window (0, 109) starts below first = 1
    (70000, 19, 1, 50.0, (49.5, 0.5, 0.05), 70000),  # window (1, 99) starts at first
    (65537, 37, 1000, 1.0, (1e-5, 1e-6, 0.05), 815),  # the one count 1000
    (70001, 41, 400, 0.125, (0.03, 0.1, 0.05), 62738),
    (65536, 23, 1, 5.0, (1e300, 0.5, 0.05), 65536),  # k_max near 1e300
    (1, 29, 3, 4.0, (40.0, 0.9, 0.05), 1),
    (7, 31, 1, 1e-9, (0.5, 0.5, 0.05), 7),
]


def _stream(seed):
    return Generator(Philox(SeedSequence(seed)))


def _draws(theta, u):
    """The counts the uniforms u stand for: first + cum.searchsorted(u, "right").

    The inverse-cdf map over _table that GENERATOR_ID names; simulate_coverage
    counts hits on the raw words behind u and forms neither u nor these.
    """
    first, cum = _table(theta)
    return first + cum.searchsorted(u, "right")


class TestReproducibility:
    def test_identical_config_identical_result(self):
        cfg = SimConfig(trials=50_000, seed=42, n=1, lam=1.0, budget=ErrorBudget(1.0, 0.5, 0.05))
        assert simulate_coverage(cfg) == simulate_coverage(cfg)

    def test_block_boundary_sizes(self):
        # Crossing the 65536-per-block boundary must stay deterministic.
        budget = ErrorBudget(0.5, 0.2, 0.1)
        for trials in (65_535, 65_536, 65_537, 131_073):
            cfg = SimConfig(trials=trials, seed=5, n=2, lam=1.5, budget=budget)
            a, b = simulate_coverage(cfg), simulate_coverage(cfg)
            assert a == b
            assert a.trials == trials
            assert 0 <= a.hits <= trials

    def test_different_seeds_differ(self):
        budget = ErrorBudget(1.0, 0.5, 0.05)
        a = simulate_coverage(SimConfig(trials=200_000, seed=1, n=1, lam=1.0, budget=budget))
        b = simulate_coverage(SimConfig(trials=200_000, seed=2, n=1, lam=1.0, budget=budget))
        assert a.hits != b.hits


class TestSimulateCoverage:
    def test_window_containing_everything_gives_one(self):
        cfg = SimConfig(
            trials=10_000, seed=11, n=1, lam=0.01, budget=ErrorBudget(1e6, 0.5, 0.05)
        )
        assert simulate_coverage(cfg).estimate == 1.0

    def test_small_mean_agrees_with_exact(self):
        budget = ErrorBudget(1.0, 0.5, 0.05)
        cfg = SimConfig(trials=10**6, seed=42, n=1, lam=1.0, budget=budget)
        res = simulate_coverage(cfg)
        p = exact_coverage(1, 1.0, budget).coverage
        assert p == pytest.approx(E_INV, rel=1e-13, abs=0.0)
        tol = 3.0 * math.sqrt(p * (1.0 - p) / cfg.trials) + 1.0 / cfg.trials
        assert abs(res.estimate - p) <= tol

    def test_planned_size_meets_guarantee_in_simulation(self):
        budget = ErrorBudget(0.1, 0.1, 0.05)
        cfg = SimConfig(trials=10**5, seed=7, n=762, lam=1.0, budget=budget)
        res = simulate_coverage(cfg)
        assert res.estimate >= 0.95 - res.ci_half_width

    def test_large_mean_path_agrees_with_exact(self):
        budget = ErrorBudget(0.5, 0.1, 0.05)
        cfg = SimConfig(trials=200_000, seed=13, n=100, lam=2.0, budget=budget)  # theta=200
        res = simulate_coverage(cfg)
        p = exact_coverage(100, 2.0, budget).coverage
        tol = 3.0 * math.sqrt(p * (1.0 - p) / cfg.trials) + 1.0 / cfg.trials
        assert abs(res.estimate - p) <= tol

    def test_result_invariants(self):
        cfg = SimConfig(trials=12_345, seed=3, n=4, lam=0.7, budget=ErrorBudget(0.2, 0.3, 0.1))
        res = simulate_coverage(cfg)
        assert isinstance(res, SimResult)
        assert 0 <= res.hits <= res.trials
        assert res.estimate == res.hits / res.trials
        assert res.ci_half_width >= 0.0
        assert res.generator  # pinned generator identifier travels with results

    def test_trials_cap(self):
        cfg = SimConfig(trials=TRIALS_CAP + 1, seed=0, n=1, lam=1.0, budget=ErrorBudget(1.0, 0.5, 0.05))
        with pytest.raises(ResourceLimitError):
            simulate_coverage(cfg)

    def test_theta_domain(self):
        # The cdf table is capped at TABLE_CAP entries, about theta <= 2.7e9.
        cfg = SimConfig(trials=10, seed=0, n=762, lam=1e17, budget=ErrorBudget(0.1, 0.1, 0.05))
        with pytest.raises(ResourceLimitError):
            simulate_coverage(cfg)
        assert TABLE_CAP == 2**20
        for theta in (2.8e9, 2.0**54):
            with pytest.raises(ResourceLimitError, match="TABLE_CAP"):
                _table(theta)
        assert _draws(2.7e9, _stream(1).random()) > 0  # just inside the cap

    def test_mean_past_double_range_raises(self):
        # n*lam forms theta = inf, which the table refuses before _span sees it.
        cfg = SimConfig(trials=10, seed=0, n=10**400, lam=1.0, budget=ErrorBudget(0.1, 0.1, 0.05))
        with pytest.raises(ResourceLimitError, match="TABLE_CAP"):
            simulate_coverage(cfg)
        for theta in (math.inf, math.nan):
            with pytest.raises(ResourceLimitError, match="TABLE_CAP"):
                _table(theta)

    def test_config_validation(self):
        budget = ErrorBudget(1.0, 0.5, 0.05)
        with pytest.raises(ParameterError):
            SimConfig(trials=0, seed=0, n=1, lam=1.0, budget=budget)
        with pytest.raises(ParameterError):
            SimConfig(trials=1, seed=-1, n=1, lam=1.0, budget=budget)
        with pytest.raises(ParameterError):
            SimConfig(trials=1, seed=0, n=0, lam=1.0, budget=budget)
        with pytest.raises(ParameterError):
            SimConfig(trials=1, seed=0, n=1, lam=0.0, budget=budget)
        with pytest.raises(ParameterError):
            SimConfig(trials=True, seed=0, n=1, lam=1.0, budget=budget)
        with pytest.raises(ParameterError):
            SimConfig(trials=1, seed=0, n=True, lam=1.0, budget=budget)


class TestScalarSampler:
    """Draws from the cdf table through _draws, one uniform each."""

    def test_deterministic_given_stream(self):
        a = _draws(4.2, _stream(77).random(100))
        b = _draws(4.2, _stream(77).random(100))
        assert np.array_equal(a, b)

    def test_tiny_mean_rarely_nonzero(self):
        nonzero = np.count_nonzero(_draws(1e-9, _stream(55).random(10**6)))
        assert nonzero <= 5  # expected count is 1e-3

    def test_moments_at_moderate_mean(self):
        draws = _draws(5.0, _stream(2024).random(10**6))
        assert abs(draws.mean() - 5.0) <= 3.0 * math.sqrt(5.0 / 1e6)
        assert abs(draws.var() - 5.0) <= 0.05 * 5.0

    def test_moments_when_table_starts_above_zero(self):
        draws = _draws(200.0, _stream(88).random(100_000))
        assert abs(draws.mean() - 200.0) <= 3.0 * math.sqrt(200.0 / 1e5)
        assert abs(draws.var() - 200.0) <= 0.05 * 200.0


class TestGuideLookup:
    """The draw on u is the smallest count k with cdf(k) > u."""

    @pytest.mark.parametrize("theta", [1e-9, 0.5, 5.0, 63.0, 200.0, 3.8e4, 1.5e6])
    def test_equals_plain_inverse_cdf(self, theta):
        first, cum = _table(theta)
        u = np.concatenate([
            _stream(7).random(100_000),
            cum[:-1],  # exactly on a cdf value: the next count
            np.nextafter(cum[:-1], 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = u[u < 1.0]
        assert first == _span(theta)[0]
        assert cum[-1] == math.inf and np.all(np.diff(cum[:-1]) >= 0.0)
        j = _draws(theta, u) - first
        assert np.all(u < cum[j])
        assert np.all((j == 0) | (cum[np.maximum(j - 1, 0)] <= u))


class TestPinnedStream:
    def test_generator_id(self):
        assert GENERATOR_ID == "philox4x64:block65536:guide-inversion:v2"

    @pytest.mark.parametrize("trials, seed, n, lam, budget, hits", PINNED_HITS)
    def test_hits(self, trials, seed, n, lam, budget, hits):
        res = simulate_coverage(SimConfig(trials, seed, n, lam, ErrorBudget(*budget)))
        assert (res.hits, res.generator) == (hits, GENERATOR_ID)


def _uniforms(r):
    """The uniforms numpy's Generator.random makes of Philox words r: (r >> 11) * 2^-53."""
    return (r >> np.uint64(11)).astype(np.float64) * 2.0**-53


class TestHitThresholds:
    @staticmethod
    def _check_thresholds(first, cum):
        # Words at and one below B(c) for each cdf value c, plus 0 and 2^64 - 1:
        # the raw count in every window is that of the inverse-cdf draws on
        # those words' uniforms.
        at = np.array([_word(c) for c in cum], dtype=object)
        words = np.concatenate([at, at - 1, [0, 2**64 - 1]])
        r = np.array([w for w in words if 0 <= w < 2**64], dtype=np.uint64)
        ks = np.searchsorted(cum, _uniforms(r), side="right") + first
        last = first + cum.size - 1  # the count of the inf sentinel
        ends = {0, first - 1, first, first + 1, (first + last) // 2, last - 1, last, last + 1, 10**30}
        ends = sorted(k for k in ends if k >= 0)
        for k_min in ends:
            for k_max in ends:
                want = int(np.count_nonzero((ks >= k_min) & (ks <= k_max)))
                got = _hits(r.copy(), *_word_range(first, cum, k_min, k_max))
                assert got == want, (k_min, k_max)

    @pytest.mark.parametrize("theta", [1e-9, 0.5, 50.0, 200.0, 3.8e4])
    def test_thresholds_at_cdf_values(self, theta):
        self._check_thresholds(*_table(theta))

    def test_thresholds_at_edge_values(self):
        # A table whose cdf values are 0.0, a subnormal, exactly 1.0 and
        # above 1, before its inf sentinel.
        cum = np.array([0.0, 5e-324, 0.25, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, np.inf])
        for first in (0, 3):
            self._check_thresholds(first, cum)

    @pytest.mark.parametrize("x, word", [
        (0.0, 0),
        (5e-324, 1 << 11),  # the least subnormal
        (2**-53, 1 << 11),
        (0.5, 1 << 63),
        (1.0 - 2**-53, 2**64 - 2**11),
        (1.0, 2**64),
        (1.0 + 2**-52, 2**64),
        (math.inf, 2**64),
    ])
    def test_word_bounds(self, x, word):
        # B(x) is the least word whose uniform is >= x (2^64 where none is).
        assert _word(x) == word
        if word < 2**64:
            assert _uniforms(np.array([word], dtype=np.uint64))[0] >= x
        if word > 0:
            assert _uniforms(np.array([word - 1], dtype=np.uint64))[0] < x

    def test_uniform_map_is_numpys(self):
        # The oracle above: Generator.random over Philox is (r >> 11) * 2^-53.
        child = SeedSequence(61).spawn(2)[1]
        u = Generator(Philox(child)).random(1000)
        assert np.array_equal(_uniforms(Philox(child).random_raw(1000)), u)

    def test_every_word_and_none(self):
        # width 2^64 counts every word and width <= 0 none; the range test
        # wraps past 2^64 - 1.  Through simulate_coverage, a window of every
        # word or of none gives all trials or no hits.
        r = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert _hits(r.copy(), 0, 2**64) == 4
        assert _hits(r.copy(), 2**64, 0) == 0
        assert _hits(r.copy(), 5, -5) == 0
        assert _hits(r.copy(), 2**64 - 1, 2) == 2  # 2^64 - 1 and 0
        for n, lam, budget, hits in [
            (1, 0.01, ErrorBudget(1e6, 0.5, 0.05), 200000),
            (5, 1e-3, ErrorBudget(1e-4, 0.5, 0.05), 0),
        ]:
            first, cum = _table(n * lam)
            width = _word_range(first, cum, *coverage_window(n, lam, budget))[1]
            assert width == (2**64 if hits else 0)
            assert simulate_coverage(SimConfig(200000, 3, n, lam, budget)).hits == hits

    @given(
        n=st.integers(min_value=1, max_value=3000),
        log_lam=st.floats(min_value=-4.0, max_value=2.5),
        log_ea=st.floats(min_value=-4.0, max_value=3.0),
        er=st.floats(min_value=0.01, max_value=0.9),
        blocks=st.integers(min_value=1, max_value=3),
        last=st.integers(min_value=1, max_value=65536),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_hits_equal_counted_draws(self, n, log_lam, log_ea, er, blocks, last, seed):
        # The same spawned block streams, drawn as counts and counted in the window.
        lam, budget = 10.0**log_lam, ErrorBudget(10.0**log_ea, er, 0.05)
        trials = 65536 * (blocks - 1) + last
        k_min, k_max = coverage_window(n, lam, budget)
        want = 0
        for i, child in enumerate(SeedSequence(seed).spawn(-(-trials // 65536))):
            ks = _draws(n * lam, Generator(Philox(child)).random(min(65536, trials - i * 65536)))
            want += int(np.count_nonzero((ks >= k_min) & (ks <= k_max)))
        assert simulate_coverage(SimConfig(trials, seed, n, lam, budget)).hits == want


class TestBlockSamplerDistribution:
    @pytest.mark.parametrize("theta", [0.5, 5.0, 50.0, 1e4])
    def test_chi_square_goodness_of_fit(self, theta):
        trials = 10**6
        ks = _draws(theta, _stream(101).random(trials))
        counts = np.bincount(ks).astype(float)
        expected = np.array(
            [poisson_pmf(theta, k) for k in range(counts.size)]
        ) * trials
        bins = list(zip(counts, expected))
        while len(bins) > 2 and bins[0][1] < 5.0:
            c, e = bins.pop(0)
            bins[0] = (bins[0][0] + c, bins[0][1] + e)
        while len(bins) > 2 and bins[-1][1] < 5.0:
            c, e = bins.pop()
            bins[-1] = (bins[-1][0] + c, bins[-1][1] + e)
        # Residual mass beyond the observed maximum belongs to the last bin.
        c_last, e_last = bins[-1]
        bins[-1] = (c_last, e_last + (trials - sum(e for _, e in bins)))
        obs = np.array([c for c, _ in bins])
        exp = np.array([e for _, e in bins])
        stat = float(((obs - exp) ** 2 / exp).sum())
        p_value = float(sps.chi2.sf(stat, len(bins) - 1))
        assert p_value > 1e-6

    @pytest.mark.parametrize("theta", [4.2, 762.0, 6e6])
    def test_table_against_numpy_poisson(self, theta):
        # The cdf table is exact._run, the kernel's own recurrence, so Monte
        # Carlo agreeing with the kernel cannot catch a pmf error in it.  numpy's
        # Generator.poisson draws by another algorithm (multiplication below
        # theta = 10, PTRS above); 10^6 seeded draws must fit the table's pmf.
        # Draws outside the table count in its end bins; bins are pooled from
        # the left to expected counts >= 5, the remainder into the last.
        trials = 10**6
        first, cum = _table(theta)
        expected = np.diff(cum[:-1], prepend=0.0) * trials
        ks = _stream(2121).poisson(theta, trials)
        observed = np.bincount(np.clip(ks - first, 0, expected.size - 1), minlength=expected.size)
        bins, obs, exp = [], 0, 0.0
        for o, e in zip(observed.tolist(), expected.tolist()):
            obs, exp = obs + o, exp + e
            if exp >= 5.0:
                bins.append((obs, exp))
                obs, exp = 0, 0.0
        bins[-1] = (bins[-1][0] + obs, bins[-1][1] + exp)
        o, e = np.array(bins).T
        stat = float(((o - e) ** 2 / e).sum())
        assert len(bins) > 10
        assert float(sps.chi2.sf(stat, len(bins) - 1)) > 1e-6

    def test_continuity_across_span_seams(self):
        # The table's first count lc leaves 0 at theta = -ln(1e-16) = 36.84.
        # It stays clamped at 1 while the lower guess theta - 10 sqrt(theta)
        # - 35 is below 1 (it crosses 0 near 162.5), and is 2 from 164.1.
        # Means either side of each seam give plausible moments.
        assert [_span(t)[0] for t in (36.8, 36.9, 160.0, 165.0)] == [0, 1, 1, 2]
        for theta in (36.8, 36.9, 160.0, 165.0):
            ks = _draws(theta, _stream(303).random(200_000))
            assert abs(ks.mean() - theta) <= 3.0 * math.sqrt(theta / 2e5)
