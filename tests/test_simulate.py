"""Tests for the seeded Monte Carlo coverage estimator and Poisson samplers."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence
from scipy import stats as sps

from poissonplan import (
    ErrorBudget,
    ParameterError,
    ResourceLimitError,
    SimConfig,
    SimResult,
    TRIALS_CAP,
    exact_coverage,
    poisson_pmf,
    poisson_sampler,
    simulate_coverage,
)
from poissonplan.exact import _lower_cut
from poissonplan.simulate import TABLE_CAP, _lookup, _sample_poisson_block, _table

E_INV = 0.36787944117144233


def _stream(seed):
    return Generator(Philox(SeedSequence(seed)))


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
        assert p == pytest.approx(E_INV, rel=1e-13)
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
        for theta in (2.8e9, 2.0**54, math.inf):
            with pytest.raises(ResourceLimitError, match="TABLE_CAP"):
                poisson_sampler(theta, _stream(1))
            with pytest.raises(ResourceLimitError, match="TABLE_CAP"):
                _sample_poisson_block(theta, _stream(1), 10)
        assert poisson_sampler(2.7e9, _stream(1)) > 0  # just inside the cap

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
    def test_deterministic_given_stream(self):
        a = [poisson_sampler(4.2, _stream(77)) for _ in range(100)]
        b = [poisson_sampler(4.2, _stream(77)) for _ in range(100)]
        assert a == b

    def test_tiny_mean_rarely_nonzero(self):
        stream = _stream(55)
        nonzero = sum(1 for _ in range(10**6) if poisson_sampler(1e-9, stream) != 0)
        assert nonzero <= 5  # expected count is 1e-3

    def test_moments_at_moderate_mean(self):
        stream = _stream(2024)
        draws = np.array([poisson_sampler(5.0, stream) for _ in range(10**6)])
        assert abs(draws.mean() - 5.0) <= 3.0 * math.sqrt(5.0 / 1e6)
        assert abs(draws.var() - 5.0) <= 0.05 * 5.0

    def test_rejection_path_moments(self):
        stream = _stream(88)
        draws = np.array([poisson_sampler(200.0, stream) for _ in range(100_000)])
        assert abs(draws.mean() - 200.0) <= 3.0 * math.sqrt(200.0 / 1e5)
        assert abs(draws.var() - 200.0) <= 0.05 * 200.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            poisson_sampler(0.0, _stream(1))

    @pytest.mark.parametrize("theta", [1e-9, 4.2, 200.0, 1e6])
    def test_scalar_draws_equal_blocks_of_one(self, theta):
        scalar, block = _stream(606), _stream(606)
        a = [poisson_sampler(theta, scalar) for _ in range(10**4)]
        b = [int(_sample_poisson_block(theta, block, 1)[0]) for _ in range(10**4)]
        assert a == b
        assert scalar.random() == block.random()  # one uniform per draw on both paths


class _Uniforms:
    """A stand-in stream whose random() returns the given values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestGuideLookup:
    @pytest.mark.parametrize("theta", [1e-9, 0.5, 5.0, 63.0, 200.0, 3.8e4, 1.5e6])
    def test_equals_plain_inverse_cdf(self, theta):
        first, cum, guide = _table(theta)
        m = guide.size
        edges = np.arange(m) / m
        u = np.concatenate([
            _stream(7).random(100_000),
            cum[:-1],  # exactly on a cdf value: the next count
            np.nextafter(cum[:-1], 0.0),
            edges,  # guide cell edges
            np.nextafter(edges[1:], 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = u[u < 1.0]
        want = np.searchsorted(cum, u, side="right")
        assert np.array_equal(_lookup(cum, guide, u), want)
        assert first == _lower_cut(theta) + 1
        # The scalar path, fed the same uniforms by a stand-in stream.
        stream = _Uniforms(u.tolist())
        assert [poisson_sampler(theta, stream) for _ in range(u.size)] == (want + first).tolist()


class TestBlockSamplerDistribution:
    @pytest.mark.parametrize("theta", [0.5, 5.0, 50.0, 1e4])
    def test_chi_square_goodness_of_fit(self, theta):
        trials = 10**6
        ks = _sample_poisson_block(theta, _stream(101), trials)
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

    def test_switchover_continuity(self):
        # Means just below and above the inversion/rejection switch give
        # plausible moments from both code paths.
        for theta in (29.5, 30.5):
            ks = _sample_poisson_block(theta, _stream(303), 200_000)
            assert abs(ks.mean() - theta) <= 3.0 * math.sqrt(theta / 2e5)
