import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import (
    ChannelModel,
    ConvergenceError,
    LinkBudget,
    LogUtility,
    achievable_rate,
    adapt_weights,
    aggregate_utility,
    allocate_ts,
    average_utilities,
    sample_gains,
)
from utilsched.oracles import grid_search_shares

LINK = LinkBudget(snr_gap_db=8.2)


def rate_samples(snr_db, n_samples, seed):
    model = ChannelModel.from_snr_db(np.asarray(snr_db, dtype=float), LINK)
    gains = np.stack([sample_gains(model, seed, t) for t in range(n_samples)])
    return achievable_rate(gains, LINK.transmit_power, LINK)


class TestWeightedAllocate:
    def test_uniform_weights_match_unweighted(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            rates = rng.uniform(0.1, 5.0, size=n)
            utils = [LogUtility(rng.uniform(0.05, 3.0)) for _ in range(n)]
            base, _ = allocate_ts(rates, utils)
            weighted, _ = allocate_ts(rates, utils, weights=np.full(n, 1.0 / n))
            assert_allclose(weighted, base, atol=1e-12)

    def test_zero_weight_user_gets_nothing(self):
        shares, _ = allocate_ts([2.0, 3.0], LogUtility(0.1), weights=[1.0, 0.0])
        assert_allclose(shares, [1.0, 0.0])

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            rates = rng.uniform(0.1, 5.0, size=2)
            utils = [LogUtility(rng.uniform(0.05, 3.0)) for _ in range(2)]
            w = rng.uniform(0.1, 1.0, size=2)
            w /= w.sum()
            shares, _ = allocate_ts(rates, utils, weights=w)
            value = aggregate_utility(shares, rates, utils, weights=w)
            _, grid_value = grid_search_shares(rates, utils, step=1e-3, weights=w)
            assert value >= grid_value - 1e-6

    def test_average_utilities_ignore_weight_scale(self):
        rates = rate_samples([0.0, 10.0, 5.0], 300, seed=4)
        u = LogUtility(np.array([0.1, 1.0, 10.0]))
        w = np.array([0.5, 0.2, 0.3])
        unit = average_utilities(rates, u, w)
        for scale in (3.0, 1e-3):
            assert_allclose(average_utilities(rates, u, scale * w), unit, rtol=1e-12, atol=0)


class TestAdaptWeights:
    def test_single_user(self):
        model = ChannelModel.from_snr_db(np.array([10.0]), LINK)
        weights, report = adapt_weights(model, LogUtility(0.1), LINK, n_samples=200)
        assert_allclose(weights, [1.0])
        assert report.spread == 0.0
        assert report.iterations == 0

    def test_symmetric_users_converge_immediately(self):
        # symmetric statistics: the empirical spread at uniform weights is
        # pure sampling noise, so a noise-sized tolerance stops at once
        model = ChannelModel.from_snr_db(np.full(2, 10.0), LINK)
        weights, report = adapt_weights(
            model, LogUtility(0.1), LINK, tolerance=0.2, n_samples=800, seed=3
        )
        assert report.iterations <= 1
        assert_allclose(weights, [0.5, 0.5], atol=0.05)

    def test_asymmetric_matches_bisection_oracle(self):
        # 0 dB vs 10 dB users: final weights favor the weak user and agree
        # with a direct bisection on the weight ratio over the same samples
        snr = [0.0, 10.0]
        n_samples, seed = 1200, 5
        u = LogUtility(0.1)
        model = ChannelModel.from_snr_db(np.array(snr), LINK)
        weights, report = adapt_weights(
            model, u, LINK, tolerance=1e-3, n_samples=n_samples, seed=seed
        )
        assert weights[0] > weights[1]
        assert report.spread <= 1e-3

        rates = rate_samples(snr, n_samples, seed)
        lo, hi = 0.5, 1.0  # weight of the weak user
        for _ in range(40):
            w1 = 0.5 * (lo + hi)
            avg = average_utilities(rates, u, np.array([w1, 1.0 - w1]))
            if avg[0] < avg[1]:
                lo = w1
            else:
                hi = w1
        assert abs(weights[0] - 0.5 * (lo + hi)) <= 1e-3

    def test_average_utility_monotone_in_weight(self):
        rates = rate_samples([5.0, 5.0], 400, seed=9)
        u = LogUtility(0.1)
        previous = -np.inf
        for w1 in np.linspace(0.2, 0.8, 7):
            avg = average_utilities(rates, u, np.array([w1, 1.0 - w1]))
            assert avg[0] >= previous - 1e-12
            previous = avg[0]

    def test_iterates_are_pareto_optimal_on_sample_set(self):
        # at the converged weights no per-frame reallocation can raise one
        # user's average utility without lowering the other's
        snr = [0.0, 10.0]
        n_samples, seed = 300, 7
        u = LogUtility(0.1)
        model = ChannelModel.from_snr_db(np.array(snr), LINK)
        weights, _ = adapt_weights(model, u, LINK, tolerance=1e-3, n_samples=n_samples, seed=seed)
        rates = rate_samples(snr, n_samples, seed)

        shares = np.stack([allocate_ts(r, u, weights=weights)[0] for r in rates])
        base = np.array(
            [u.value(shares[:, j] * rates[:, j]).mean() for j in range(2)]
        )
        rng = np.random.default_rng(11)
        for _ in range(200):
            trial = shares.copy()
            frame = int(rng.integers(n_samples))
            delta = rng.uniform(-1.0, 1.0) * 0.05
            moved = np.clip(trial[frame, 0] + delta, 0.0, 1.0)
            trial[frame] = [moved, 1.0 - moved]
            avg = np.array([u.value(trial[:, j] * rates[:, j]).mean() for j in range(2)])
            gain = avg - base
            # weighted sum cannot improve, and any individual gain costs the other
            assert weights @ gain <= 1e-12
            if gain[0] > 1e-15:
                assert gain[1] < 0
            if gain[1] > 1e-15:
                assert gain[0] < 0

    def test_iteration_cap_raises_with_best_report(self):
        model = ChannelModel.from_snr_db(np.array([0.0, 10.0]), LINK)
        with pytest.raises(ConvergenceError) as excinfo:
            adapt_weights(
                model, LogUtility(0.1), LINK,
                tolerance=1e-12, n_samples=100, max_iterations=3,
            )
        assert excinfo.value.diagnostics.spread > 0

    def test_tolerance_validated(self):
        model = ChannelModel.from_snr_db(np.array([0.0]), LINK)
        with pytest.raises(ValueError):
            adapt_weights(model, LogUtility(0.1), LINK, tolerance=0.0)
