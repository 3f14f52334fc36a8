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
from utilsched import powercontrol
from utilsched.channel import sample_gains
from utilsched.powercontrol import update_energies_pooled
from utilsched.simulate import TRAINING_FRAME_OFFSET, ExperimentConfig
from utilsched.utility import interior_share_marginal, per_share

from test_utility import ScaledLog

LINK = LinkBudget(snr_gap_db=0.0)


def random_instance(rng, n_users=2, n_samples=60, mean=2.0):
    gains = rng.exponential(mean, size=(n_samples, n_users))
    budgets = rng.uniform(0.5, 2.0, size=n_users)
    utility = LogUtility(float(rng.uniform(0.05, 2.0)))
    return gains, budgets, utility


def benchmark_jtpc(seed):
    """The benchmark's 0 dB jtpc config and its 300 training samples."""
    config = ExperimentConfig(policy="jtpc", mean_snr_db=0.0, training_samples=300, n_frames=1000, seed=seed)
    model = config.channel()
    training = range(TRAINING_FRAME_OFFSET, TRAINING_FRAME_OFFSET + config.training_samples)
    return config, np.stack([sample_gains(model, seed, t) for t in training])


def record_marginal_ndims(monkeypatch):
    """Record ``x.ndim`` of every share-marginal evaluation in ``powercontrol``."""
    ndims = []
    marginal = powercontrol.interior_share_marginal
    monkeypatch.setattr(powercontrol, "interior_share_marginal",
                        lambda u, x, share: ndims.append(x.ndim) or marginal(u, x, share))
    return ndims


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

    def test_only_a_guess_replays_the_pair_bisection(self, monkeypatch):
        # the replay evaluates the marginal on a (row, step, user) grid, the
        # plain bisection on (row, user) rows
        ndims = record_marginal_ndims(monkeypatch)
        gains = np.array([[1.0, 2.0], [0.3, 1.5], [4.0, 0.2]])
        shares = update_shares(gains, np.ones_like(gains), LogUtility(0.3), LINK)
        assert set(ndims) == {2}
        update_shares(gains, np.ones_like(gains), LogUtility(0.3), LINK, guess=shares)
        assert 3 in ndims
        # Gauss-Seidel training passes no guess
        ndims.clear()
        config, gains = benchmark_jtpc(0)
        solve_uplink(gains, config.utilities(), config.per_user("power_budget"), config.link(), threshold=config.delta)
        assert set(ndims) == {2}

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

    @pytest.mark.parametrize("budget", [1e60, 1e80])
    def test_huge_budget_met(self, budget):
        # the water level falls past 200 halvings of its peak
        gains = np.random.default_rng(0).exponential(10.0, size=(50, 2))
        shares = np.full((50, 2), 0.5)
        energies, _ = update_energies(gains, shares, LogUtility(0.1), budget, LinkBudget(snr_gap_db=8.2))
        assert_allclose(energies.mean(axis=0), [budget, budget], rtol=1e-12)

    @pytest.mark.parametrize("budget", [1e20, 1e40, 1e60, 1e80])
    def test_huge_budget_equalizes_marginals(self, budget):
        # the level meets its own residual before the final rescale, so the
        # rescale leaves the water-filling condition intact
        gains = np.random.default_rng(0).exponential(10.0, size=(50, 2))
        shares = np.full((50, 2), 0.5)
        u, link = LogUtility(0.1), LinkBudget(snr_gap_db=8.2)
        energies, _ = update_energies(gains, shares, u, budget, link)
        marginals = u.marginal_energy(shares, energies, gains, link)
        for user in range(2):
            active = marginals[energies[:, user] > 0, user]
            assert active.max() <= active.min() * (1 + 1e-12)

    @pytest.mark.parametrize("pooled", [False, True], ids=["uplink", "pooled"])
    @pytest.mark.parametrize("budget", [1e-19, 1e-20, 1e-30])
    def test_budget_below_the_level_resolution_met(self, budget, pooled):
        # one float below either user's peak log-level already spends 2.2e-19 and
        # 1.2e-19 on average, so no level resolves these budgets: each settles on
        # its peak, and the budget goes to the entries whose zero-energy
        # marginal is that peak
        gains = np.random.default_rng(0).exponential(10.0, size=(50, 2))
        shares = np.full((50, 2), 0.5)
        u, link = LogUtility(0.1), LinkBudget(snr_gap_db=8.2)
        m_zero = u.marginal_energy(shares, np.zeros_like(gains), gains, link)
        if pooled:
            energies, _ = update_energies_pooled(gains, shares, u, budget, link)
            assert_allclose(energies.sum(axis=1).mean(), budget, rtol=1e-12)
            peak = m_zero == m_zero.max()
        else:
            energies, _ = update_energies(gains, shares, u, budget, link)
            assert_allclose(energies.mean(axis=0), [budget, budget], rtol=1e-12)
            peak = m_zero == m_zero.max(axis=0)
        assert np.all(energies[~peak] == 0.0) and np.all(energies[peak] > 0.0)

    def test_budget_validation(self):
        gains = np.ones((2, 1))
        shares = np.ones((2, 1))
        with pytest.raises(ValueError):
            update_energies(gains, shares, LogUtility(1.0), [0.0], LINK)

    @pytest.mark.parametrize("budget", [1e-16, 1e-13, 1e-10])
    def test_small_budget_met(self, budget):
        # the levels settle on closed brackets, not on their residuals, and the rescale meets the budgets
        gains = np.random.default_rng(0).exponential(10.0, size=(50, 2))
        shares = np.full((50, 2), 0.5)
        energies, _ = update_energies(gains, shares, LogUtility(0.1), budget, LinkBudget(snr_gap_db=8.2))
        assert_allclose(energies.mean(axis=0), [budget, budget], rtol=1e-12)

    @pytest.mark.parametrize("budget", [1e20, 1e40, 1e60, 1e80])
    def test_huge_pooled_budget_equalizes_marginals(self, budget):
        gains = np.random.default_rng(0).exponential(10.0, size=(50, 2))
        shares = np.full((50, 2), 0.5)
        u, link = LogUtility(0.1), LinkBudget(snr_gap_db=8.2)
        energies, _ = update_energies_pooled(gains, shares, u, budget, link)
        active = u.marginal_energy(shares, energies, gains, link)[energies > 0]
        assert active.max() <= active.min() * (1 + 1e-12)

    @pytest.mark.parametrize("pooled", [False, True], ids=["uplink", "pooled"])
    @pytest.mark.parametrize("utility", [LogUtility(0.1), ScaledLog(0.1, 2.0)], ids=["log", "generic"])
    @pytest.mark.parametrize("budget", [1e305, 1e307])
    def test_budget_near_the_float_range_met(self, budget, utility, pooled):
        # trial levels whose energies overflow count as overspent, and the
        # sample sums that overflow are taken again at a smaller scale; a
        # RuntimeWarning fails the test
        gains = np.random.default_rng(0).exponential(10.0, size=(50, 2))
        shares = np.full((50, 2), 0.5)
        update = update_energies_pooled if pooled else update_energies
        energies, _ = update(gains, shares, utility, budget, LinkBudget(snr_gap_db=8.2))
        spent = (energies / 50).sum(axis=0)  # the sum of energies / 50 does not overflow
        assert_allclose(spent.sum() if pooled else spent, budget, rtol=1e-12)

    @pytest.mark.parametrize("pooled", [False, True], ids=["uplink", "pooled"])
    @pytest.mark.parametrize("utility", [LogUtility(0.1), ScaledLog(0.1, 2.0)], ids=["log", "generic"])
    def test_budget_past_the_float_range_raises(self, utility, pooled):
        # one of four samples can spend, so its energy would have to be 4e308
        gains = np.array([[1.0], [0.0], [0.0], [0.0]])
        update = update_energies_pooled if pooled else update_energies
        with pytest.raises(ConvergenceError, match="energy is not a finite float"):
            update(gains, np.ones((4, 1)), utility, 1e308, LINK)

    def test_default_training_update_makes_few_waterfilling_calls(self, monkeypatch):
        # the default jtpc training set, at the shares of its first Gauss-Seidel step
        config = ExperimentConfig(policy="jtpc")
        frames = range(TRAINING_FRAME_OFFSET, TRAINING_FRAME_OFFSET + config.training_samples)
        gains = np.stack([sample_gains(config.channel(), config.seed, t) for t in frames])
        u, link, budgets = config.utilities(), config.link(), config.per_user("power_budget")
        shares = update_shares(gains, np.tile(budgets, (len(gains), 1)), u, link)
        calls = []
        waterfill = powercontrol._waterfill_energies
        monkeypatch.setattr(powercontrol, "_waterfill_energies", lambda *args: calls.append(args) or waterfill(*args))
        energies, _ = update_energies(gains, shares, u, budgets, link)
        assert len(calls) <= 10
        assert_allclose(energies.mean(axis=0), budgets, rtol=1e-12)


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

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_benchmark_downlink_training_makes_few_marginal_calls(self, seed, monkeypatch):
        # the benchmark's N=3 downlink training at 0 dB; a bisected multiplier
        # with an rtsafe inverse inside made 1,867 calls at seed 0
        link = LinkBudget(snr_gap_db=8.2)
        gains = np.random.default_rng(seed).exponential(link.noise_power / link.transmit_power, size=(100, 3))
        calls = []
        marginal = powercontrol._log_share_marginal
        monkeypatch.setattr(powercontrol, "_log_share_marginal", lambda *args: calls.append(1) or marginal(*args))
        solve_downlink(gains, LogUtility(0.1), 3.0, link)
        assert len(calls) <= 200


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
        shares, energies = apply_policy(policy, np.array([[1.5, 0.5]]), u, LINK)
        assert shares.shape == (1, 2) and energies.shape == (1, 2)
        assert abs(shares.sum() - 1.0) <= 1e-9
        # one frame is a one-row batch: a bare gain vector is rejected
        with pytest.raises(ValueError, match="n_frames"):
            apply_policy(policy, np.array([1.5, 0.5]), u, LINK)

    @pytest.mark.parametrize("trained, frames, pooled", [(2, 3, True), (2, 1, False), (2, 3, False)],
                             ids=["pooled-n2-on-n3", "uplink-n2-on-n1", "uplink-n2-on-n3"])
    def test_policy_and_frames_must_agree_on_n(self, trained, frames, pooled):
        gains = np.random.default_rng(3).exponential(1.0, size=(20, trained))
        solve = solve_downlink if pooled else solve_uplink
        policy, _ = solve(gains, LogUtility(0.5), 1.0, LINK)
        with pytest.raises(ValueError, match=f"policy is for {trained} users, the frames have {frames}"):
            apply_policy(policy, np.ones((4, frames)), LogUtility(0.5), LINK)

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_benchmark_jtpc_apply_makes_few_marginal_calls(self, seed, monkeypatch):
        # the 0 dB jtpc config on which apply_policy runs to its 300-round cap;
        # a 50-step bisection per round made 15,000 calls
        config, gains = benchmark_jtpc(seed)
        u, link = config.utilities(), config.link()
        policy, _ = solve_uplink(gains, u, config.per_user("power_budget"), link, threshold=config.delta)
        frames = np.stack([sample_gains(config.channel(), seed, t) for t in range(config.n_frames)])
        calls = record_marginal_ndims(monkeypatch)
        apply_policy(policy, frames, u, link)
        assert len(calls) <= 3000


class TestInvalidGains:
    """Negative, NaN and infinite gains are rejected before any work."""

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("call", ["uplink", "downlink", "apply"])
    def test_first_bad_gain_is_named(self, call, bad):
        gains = np.ones((4, 2))
        gains[2, 1] = gains[3, 0] = bad
        u = LogUtility(1.0)
        policy, _ = solve_uplink(np.ones((4, 2)), u, 1.0, LINK)
        run = {
            "uplink": lambda: solve_uplink(gains, u, 1.0, LINK),
            "downlink": lambda: solve_downlink(gains, u, 1.0, LINK),
            "apply": lambda: apply_policy(policy, gains, u, LINK),
        }[call]
        with pytest.raises(ValueError, match=rf"gains must be finite and >= 0, got {bad} at \[2, 1\]"):
            run()

    def test_zero_gains_are_valid(self):
        policy, _ = solve_uplink(np.array([[1.0, 0.0], [0.0, 2.0]]), LogUtility(1.0), 1.0, LINK)
        shares, energies = apply_policy(policy, np.array([[0.0, 0.0], [0.0, 1.0]]), LogUtility(1.0), LINK)
        assert np.array_equal(energies[0], [0.0, 0.0]) and np.array_equal(shares[1], [0.0, 1.0])


class TestUnbracketedEnergy:
    """Multipliers so small that the energy root lies beyond 2**120.

    The root lies in t = ln(1 + energy·snr/share) in [0, ln(m_zero/multiplier)]
    for every utility, so the generic bisection and the log family's Newton
    solve both reach it, up to the float range.
    """

    GAINS = np.array([1.0, 2.0])

    def apply_at(self, multiplier, utility=LogUtility(1.0)):
        from utilsched.powercontrol import PowerPolicy

        policy = PowerPolicy(
            gains=self.GAINS[None, :], shares=np.full((1, 2), 0.5), energies=np.ones((1, 2)),
            budgets=np.ones(2), multipliers=np.full(2, multiplier),
        )
        shares, energies = apply_policy(policy, self.GAINS[None, :], utility, LINK)
        return shares[0], energies[0]

    def assert_kkt(self, multiplier, u=LogUtility(1.0)):
        shares, energies = self.apply_at(multiplier, u)
        assert np.all(shares > 0) and abs(shares.sum() - 1.0) <= 1e-12
        assert_allclose(u.marginal_energy(shares, energies, self.GAINS, LINK), multiplier, rtol=1e-9)
        x = energies * self.GAINS / LINK.effective_noise / shares
        share_marginals = interior_share_marginal(u, x, shares)
        assert_allclose(share_marginals[0], share_marginals[1], rtol=1e-9)

    def test_generic_utility_meets_kkt_past_the_old_bracket(self):
        # 120 energy doublings could not bracket these roots
        for multiplier in (1e-40, 1e-100):
            self.assert_kkt(multiplier, ScaledLog(1.0, scale=1.0))

    def test_small_bracketed_multiplier_meets_kkt(self):
        self.assert_kkt(1e-30)

    def test_log_family_meets_kkt_past_the_bracket(self):
        self.assert_kkt(1e-40)

    def test_energy_past_the_float_range_raises(self):
        # ln(1 + energy*snr/share) is about 730 here: the energy overflows
        with pytest.raises(ConvergenceError, match="finite") as info:
            self.apply_at(1e-320)
        assert min(info.value.diagnostics["t"]) > np.log(np.finfo(float).max)

    def test_finite_energy_past_expm1_overflow(self):
        from utilsched.powercontrol import _waterfill_energies

        link = LinkBudget(snr_gap_db=3.0)
        gains, shares, multiplier, a = np.full((1, 2), 1e100), np.full((1, 2), 0.5), 1e-220, 0.1
        energies = _waterfill_energies(LogUtility(a), gains, shares, link, multiplier)
        assert np.all((1e217 < energies) & (energies < 2e217))
        # energy·snr overflows, so check the energy condition in logs
        snr = gains / link.effective_noise
        t = np.log(energies) + np.log(snr / shares)
        log_marginal = np.log(snr / np.log(2.0)) - t - np.log(a + shares * t / np.log(2.0))
        assert np.all(np.abs(log_marginal - np.log(multiplier)) <= 1e-12)

    def test_newton_cap_raises_with_diagnostics(self, monkeypatch):
        from utilsched import powercontrol

        monkeypatch.setattr(powercontrol, "ENERGY_NEWTON", 1)
        with pytest.raises(ConvergenceError, match="energy Newton") as info:
            self.apply_at(1e-30)
        assert set(info.value.diagnostics) == {"t", "c", "r"}
        monkeypatch.undo()
        monkeypatch.setattr(powercontrol, "SHARE_NEWTON", 1)
        gains = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(ConvergenceError, match="share Newton") as info:
            update_shares(gains, np.ones((1, 3)), LogUtility(1.0), LINK)
        assert set(info.value.diagnostics) == {"rows", "lo", "hi"} and info.value.diagnostics["rows"] == [0]
