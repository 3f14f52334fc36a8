import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import (
    ConvergenceError,
    DegenerateBudgetError,
    LinkBudget,
    LogUtility,
    apply_policy,
    constant_power_objective,
    sample_objective,
    solve_downlink,
    solve_uplink,
    update_energies,
    update_shares,
)
from utilsched.powercontrol import update_energies_pooled
from utilsched.utility import per_share

LINK = LinkBudget(snr_gap_db=0.0)


def random_instance(rng, n_users=2, n_samples=60, mean=2.0):
    gains = rng.exponential(mean, size=(n_samples, n_users))
    budgets = rng.uniform(0.5, 2.0, size=n_users)
    utility = LogUtility(float(rng.uniform(0.05, 2.0)))
    return gains, budgets, utility


class TestSolveUplink:
    def test_single_user_single_sample_binds(self):
        gains = np.array([[2.5]])
        policy, _ = solve_uplink(gains, LogUtility(1.0), 1.3, LINK)
        assert_allclose(policy.shares, [[1.0]])
        assert_allclose(policy.energies, [[1.3]], rtol=1e-9)

    def test_two_sample_grid_oracle(self):
        # N=1, samples g in {1, 4}, budget 1: the only freedom is the energy
        # split across the two samples; sweep it directly
        u = LogUtility(1.0)
        gains = np.array([[1.0], [4.0]])
        policy, trace = solve_uplink(gains, u, 1.0, LINK, threshold=1e-10)
        split = np.arange(0.0, 2.0 + 1e-9, 1e-4)
        objective = 0.5 * (
            u.value_with_energy(1.0, split, 1.0, LINK)
            + u.value_with_energy(1.0, 2.0 - split, 4.0, LINK)
        )
        assert trace.objectives[-1] >= objective.max() - 1e-3
        assert abs(trace.objectives[-1] - objective.max()) <= 1e-3

    def test_monotone_feasible_and_dominates_constant_power(self):
        rng = np.random.default_rng(42)
        link = LinkBudget(snr_gap_db=8.2)
        for _ in range(5):
            gains, budgets, utility = random_instance(rng)
            policy, trace = solve_uplink(gains, utility, budgets, link)
            increments = np.diff(trace.objectives)
            assert np.all(increments >= -1e-12)
            residual = np.abs(policy.energies.mean(axis=0) - budgets) / budgets
            assert np.all(residual <= 1e-6)
            assert np.all(np.abs(policy.shares.sum(axis=1) - 1.0) <= 1e-9)
            baseline = constant_power_objective(gains, utility, budgets, link)
            assert trace.objectives[-1] >= baseline - 1e-9

    def test_nonconvergence_raises_with_trace(self):
        gains = np.array([[1.0, 2.0], [3.0, 0.5]])
        with pytest.raises(ConvergenceError) as excinfo:
            solve_uplink(gains, LogUtility(0.5), [1.0, 1.0], LINK, max_iterations=1)
        assert excinfo.value.diagnostics.iterations == 1

    def test_powers_reported_zero_at_zero_share(self):
        gains = np.array([[2.0, 0.0], [1.0, 3.0]])
        policy, _ = solve_uplink(gains, LogUtility(0.5), [1.0, 1.0], LINK)
        powers = per_share(policy.energies, policy.shares)
        assert powers[policy.shares == 0.0].tolist() == [0.0] * int((policy.shares == 0).sum())


class TestUpdateShares:
    def test_symmetric_sample_uniform(self):
        gains = np.full((1, 3), 2.0)
        energies = np.full((1, 3), 1.0)
        shares = update_shares(gains, energies, LogUtility(0.7), LINK)
        assert_allclose(shares, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_zero_energy_user_gets_zero_share(self):
        gains = np.array([[2.0, 3.0]])
        energies = np.array([[1.0, 0.0]])
        shares = update_shares(gains, energies, LogUtility(0.5), LINK)
        assert_allclose(shares, [[1.0, 0.0]])

    def test_two_user_matches_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            gains = rng.exponential(2.0, size=(1, 2))
            energies = rng.uniform(0.2, 2.0, size=(1, 2))
            u = LogUtility(float(rng.uniform(0.05, 2.0)))
            shares = update_shares(gains, energies, u, LINK)
            rho = np.linspace(0.0, 1.0, 1_000_001)
            values = u.value_with_energy(rho, energies[0, 0], gains[0, 0], LINK)
            values = values + u.value_with_energy(1 - rho, energies[0, 1], gains[0, 1], LINK)
            assert abs(shares[0, 0] - rho[np.argmax(values)]) <= 1e-6

    def test_three_user_matches_pairwise_exchange(self):
        # no small transfer between any pair should improve the objective
        rng = np.random.default_rng(2)
        gains = rng.exponential(2.0, size=(1, 3))
        energies = rng.uniform(0.3, 1.5, size=(1, 3))
        u = LogUtility(0.3)
        shares = update_shares(gains, energies, u, LINK)
        base = sample_objective(gains, shares, energies, u, LINK)
        eps = 1e-5
        for i in range(3):
            for j in range(3):
                if i == j or shares[0, j] < eps:
                    continue
                trial = shares.copy()
                trial[0, i] += eps
                trial[0, j] -= eps
                assert sample_objective(gains, trial, energies, u, LINK) <= base + 1e-12


class TestUpdateEnergies:
    def test_single_sample_budget_binds(self):
        gains = np.array([[1.5, 3.0]])
        shares = np.array([[0.4, 0.6]])
        energies, _ = update_energies(gains, shares, LogUtility(0.5), [0.7, 1.1], LINK)
        assert_allclose(energies, [[0.7, 1.1]], rtol=1e-9)

    def test_scarce_budget_concentrates_on_better_sample(self):
        # with a tight budget only the highest zero-energy marginal spends,
        # and that marginal grows with the gain
        gains = np.array([[1.0], [4.0]])
        shares = np.full((2, 1), 1.0)
        energies, _ = update_energies(gains, shares, LogUtility(1.0), [0.05], LINK)
        assert energies[1, 0] > energies[0, 0]
        assert energies[0, 0] == 0.0
        assert_allclose(energies.mean(axis=0), [0.05], rtol=1e-9)

    def test_ample_budget_matches_grid_oracle(self):
        # at budget 1 the concave utility saturates the strong sample and the
        # split tilts the other way; the dense grid is the authority here
        u = LogUtility(1.0)
        gains = np.array([[1.0], [4.0]])
        shares = np.full((2, 1), 1.0)
        energies, _ = update_energies(gains, shares, u, [1.0], LINK)
        split = np.arange(0.0, 2.0 + 1e-9, 1e-4)
        objective = 0.5 * (
            u.value_with_energy(1.0, split, 1.0, LINK)
            + u.value_with_energy(1.0, 2.0 - split, 4.0, LINK)
        )
        assert abs(energies[0, 0] - split[np.argmax(objective)]) <= 1e-3
        assert_allclose(energies.mean(axis=0), [1.0], rtol=1e-9)

    def test_all_zero_gains_degenerate(self):
        gains = np.zeros((3, 2))
        shares = np.full((3, 2), 0.5)
        with pytest.raises(DegenerateBudgetError):
            update_energies(gains, shares, LogUtility(1.0), [1.0, 1.0], LINK)

    def test_budget_validation(self):
        gains = np.ones((2, 1))
        shares = np.ones((2, 1))
        with pytest.raises(ValueError):
            update_energies(gains, shares, LogUtility(1.0), [0.0], LINK)


class TestDownlink:
    def test_single_user_matches_uplink(self):
        gains = np.array([[1.0], [4.0], [0.3]])
        u = LogUtility(1.0)
        up, _ = solve_uplink(gains, u, 1.0, LINK, threshold=1e-10)
        down, _ = solve_downlink(gains, u, 1.0, LINK, threshold=1e-10)
        assert_allclose(down.energies, up.energies, atol=1e-9)

    def test_symmetric_users_get_equal_average_energy(self):
        rng = np.random.default_rng(4)
        base = rng.exponential(1.0, size=150)
        # mirrored columns make the two users exactly exchangeable
        gains = np.stack([base, base[::-1]], axis=1)
        policy, _ = solve_downlink(gains, LogUtility(0.5), 2.0, LINK)
        avg = policy.energies.mean(axis=0)
        assert abs(avg[0] - avg[1]) <= 1e-6
        assert_allclose(policy.energies.sum(axis=1).mean(), 2.0, rtol=1e-9)

    def test_pooling_dominates_uplink_on_symmetric_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(2):
            gains = rng.exponential(1.5, size=(80, 2))
            u = LogUtility(0.4)
            _, up = solve_uplink(gains, u, [1.0, 1.0], LINK, threshold=1e-7)
            _, down = solve_downlink(gains, u, 2.0, LINK, threshold=1e-7)
            assert down.objectives[-1] >= up.objectives[-1] - 1e-6

    def test_pooled_energies_update_meets_total(self):
        rng = np.random.default_rng(7)
        gains = rng.exponential(2.0, size=(50, 3))
        shares = np.full((50, 3), 1 / 3)
        energies, _ = update_energies_pooled(gains, shares, LogUtility(0.5), 2.5, LINK)
        assert_allclose(energies.sum(axis=1).mean(), 2.5, rtol=1e-9)


class TestApplyPolicy:
    def test_reproduces_training_samples(self):
        rng = np.random.default_rng(11)
        gains = rng.exponential(2.0, size=(40, 2))
        u = LogUtility(0.3)
        policy, _ = solve_uplink(gains, u, [1.0, 0.8], LINK, threshold=1e-10, max_iterations=200)
        shares, energies = apply_policy(policy, gains, u, LINK)
        assert np.abs(shares - policy.shares).max() <= 1e-4
        assert np.abs(energies - policy.energies).max() <= 1e-4

    def test_single_frame_shape(self):
        gains = np.array([[1.0, 2.0], [2.0, 1.0]])
        u = LogUtility(0.5)
        policy, _ = solve_uplink(gains, u, [1.0, 1.0], LINK)
        shares, energies = apply_policy(policy, np.array([1.5, 0.5]), u, LINK)
        assert shares.shape == (2,) and energies.shape == (2,)
        assert abs(shares.sum() - 1.0) <= 1e-9


class TestUnbracketedEnergy:
    """A multiplier so small that the energy root lies beyond 2**120."""

    GAINS = np.array([1.0, 2.0])

    def apply_at(self, multiplier):
        from utilsched.powercontrol import PowerPolicy

        policy = PowerPolicy(
            gains=self.GAINS[None, :], shares=np.full((1, 2), 0.5), energies=np.ones((1, 2)),
            budgets=np.ones(2), multipliers=np.full(2, multiplier),
        )
        return apply_policy(policy, self.GAINS, LogUtility(1.0), LINK)

    def test_raises_instead_of_bisecting_outside_the_bracket(self):
        with pytest.raises(ConvergenceError, match="bracket"):
            self.apply_at(1e-40)

    def test_small_bracketed_multiplier_meets_kkt(self):
        u = LogUtility(1.0)
        shares, energies = self.apply_at(1e-30)
        assert np.all(shares > 0) and abs(shares.sum() - 1.0) <= 1e-12
        assert_allclose(u.marginal_energy(shares, energies, self.GAINS, LINK), 1e-30, rtol=1e-9)
        share_marginals = u.share_marginal(energies, self.GAINS, LINK)(shares)
        assert_allclose(share_marginals[0], share_marginals[1], rtol=1e-9)
