import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import LogUtility, aggregate_utility, allocate_ts
from utilsched.oracles import grid_search_shares

from test_utility import ScaledLog


def kkt_certificate(shares, solve, rates, utilities, weights=None, tol=1e-9):
    """Active marginals equal the multiplier; inactive ones do not exceed it."""
    n = len(shares)
    w = np.ones(n) if weights is None else np.asarray(weights)
    utils = utilities if isinstance(utilities, list) else [utilities] * n
    for i in range(n):
        marginal = w[i] * utils[i].marginal_share(rates[i], shares[i])
        if shares[i] > 0:
            assert abs(marginal - solve.multiplier) <= tol, (i, marginal, solve.multiplier)
        else:
            assert marginal <= solve.multiplier + tol


class TestAllocate:
    def test_single_user(self):
        shares, solve = allocate_ts([3.0], LogUtility(0.1))
        assert_allclose(shares, [1.0])
        assert not solve.degenerate

    def test_symmetric_split(self):
        shares, _ = allocate_ts([2.0, 2.0], LogUtility(0.5))
        assert_allclose(shares, [0.5, 0.5], atol=1e-12)

    def test_two_user_example_against_fine_grid(self):
        # independently locate the optimum on a 1e-6 grid, then check both
        # the solver and the known closed-form values
        rates = [2.0, 1.0]
        u = LogUtility(0.1)
        shares, solve = allocate_ts(rates, u)
        _, grid_best = grid_search_shares(rates, u, step=1e-6)
        assert aggregate_utility(shares, rates, u) >= grid_best - 1e-9
        assert_allclose(shares, [0.525, 0.475], atol=1e-9)
        assert_allclose(solve.multiplier, 2.0 / 1.15, rtol=1e-12)

    def test_weak_user_shut_off(self):
        rates = [4.0, 0.01]
        u = LogUtility(0.1)
        shares, solve = allocate_ts(rates, u)
        assert_allclose(shares, [1.0, 0.0])
        # excluded user's zero-share marginal sits below the water level
        assert u.marginal_share(0.01, 0.0) == pytest.approx(0.1)
        assert_allclose(solve.multiplier, 4.0 / 4.1, rtol=1e-12)
        assert u.marginal_share(0.01, 0.0) < solve.multiplier

    def test_degenerate_frame_flagged(self):
        shares, solve = allocate_ts([0.0, 0.0, 0.0], LogUtility(1.0))
        assert_allclose(shares, [1 / 3] * 3)
        assert solve.degenerate

    def test_zero_rate_user_leaves_others_unchanged(self):
        u = LogUtility(0.3)
        base, _ = allocate_ts([2.0, 1.0], u)
        padded, _ = allocate_ts([2.0, 1.0, 0.0], u)
        assert_allclose(padded[:2], base, atol=1e-12)
        assert padded[2] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            allocate_ts([], LogUtility(1.0))
        with pytest.raises(ValueError):
            allocate_ts([-1.0, 2.0], LogUtility(1.0))
        with pytest.raises(ValueError):
            allocate_ts([1.0, 2.0], [LogUtility(1.0)])  # wrong utility count

    @pytest.mark.parametrize("rates, weights", [
        ([np.nan, 1.0], None),
        ([[1.0, 2.0], [np.nan, 1.0]], None),
        ([1.0, 2.0], [np.nan, 1.0]),
    ], ids=["frame", "batch-row", "weights"])
    def test_nan_rejected_like_a_negative(self, rates, weights):
        with pytest.raises(ValueError, match="must be"):
            allocate_ts(rates, LogUtility(0.1), weights=weights)


class TestKkt:
    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            rates = rng.uniform(0.0, 8.0, size=n)
            rates[int(rng.integers(n))] += 0.1
            utils = [LogUtility(rng.uniform(0.05, 10.0)) for _ in range(n)]
            shares, solve = allocate_ts(rates, utils)
            assert abs(shares.sum() - 1.0) <= 1e-12
            kkt_certificate(shares, solve, rates, utils)

    def test_ties_share_equally(self):
        shares, _ = allocate_ts([3.0, 3.0, 1.0, 3.0], LogUtility(0.2))
        assert_allclose(shares[0], shares[1], atol=1e-12)
        assert_allclose(shares[0], shares[3], atol=1e-12)


class TestOracleEquivalence:
    def test_matches_grid_search(self):
        # 200 random instances against the simplex grid (step 1e-3)
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            rates = rng.uniform(0.0, 6.0, size=n)
            rates[int(rng.integers(n))] += 0.5
            utils = [LogUtility(rng.uniform(0.05, 5.0)) for _ in range(n)]
            shares, _ = allocate_ts(rates, utils)
            value = aggregate_utility(shares, rates, utils)
            _, grid_value = grid_search_shares(rates, utils, step=1e-3)
            assert value >= grid_value - 1e-6

    def test_bisection_path_matches_closed_form(self):
        # generic utilities route through multiplier bisection; with the same
        # underlying function the answers must coincide
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            rates = rng.uniform(0.1, 6.0, size=n)
            a = rng.uniform(0.05, 5.0, size=n)
            closed, solve_c = allocate_ts(rates, [LogUtility(ai) for ai in a])
            generic, solve_g = allocate_ts(rates, [ScaledLog(ai, scale=1.0) for ai in a])
            assert_allclose(generic, closed, atol=1e-9)
            assert_allclose(solve_g.multiplier, solve_c.multiplier, rtol=1e-9)

    def test_bisection_path_against_grid(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rates = rng.uniform(0.1, 6.0, size=2)
            utils = [ScaledLog(rng.uniform(0.1, 2.0)) for _ in range(2)]
            shares, _ = allocate_ts(rates, utils)
            value = aggregate_utility(shares, rates, utils)
            _, grid_value = grid_search_shares(rates, utils, step=1e-3)
            assert value >= grid_value - 1e-6


class TestConcentration:
    def test_near_linear_utility_concentrates_on_best_user(self):
        # with concavity far above every rate the objective is nearly linear
        # and the best-rate user takes essentially the whole frame
        rng = np.random.default_rng(21)
        for _ in range(20):
            rates = rng.uniform(0.5, 4.0, size=4)
            rates[int(rng.integers(4))] += 1.0  # unique argmax
            u = LogUtility(1e6 * rates.max())
            shares, _ = allocate_ts(rates, u)
            assert shares[np.argmax(rates)] >= 1.0 - 1e-3


class TestAggregateUtility:
    def test_zero_rates(self):
        assert aggregate_utility([0.5, 0.5], [0.0, 0.0], LogUtility(1.0)) == 0.0

    def test_single_user_example(self):
        assert_allclose(aggregate_utility([1.0], [np.e - 1.0], LogUtility(1.0)), 1.0)

    def test_equals_sum_of_per_user_values(self):
        u1, u2 = LogUtility(0.1), LogUtility(2.0)
        total = aggregate_utility([0.3, 0.7], [2.0, 1.0], [u1, u2])
        assert_allclose(total, u1.value(0.6) + u2.value(0.7), rtol=1e-12)
