"""The row-batched allocator and block frame loop against per-frame references.

The reference functions below are the per-frame loops the library ran
before it solved frames in batches: one frame per allocator call, statistics
accumulated frame by frame.  The batched code keeps their arithmetic and
their order of summation, so every comparison here is bit for bit.
"""

import numpy as np
import pytest

from utilsched import (
    ConvergenceError,
    ExperimentConfig,
    GradientSchedulerState,
    InvariantError,
    LinkBudget,
    LogUtility,
    Quantizer,
    QuantizedScheduler,
    achievable_rate,
    aggregate_utility,
    allocate_ts,
    average_utilities,
    constant_power_objective,
    quantize,
    run_experiment,
    sample_gains,
    select_user,
    sweep,
    update_state,
)
from utilsched.simulate import BLOCK_FRAMES
from utilsched.timeshare import MAX_BISECT, SIMPLEX_TOL
from utilsched.utility import as_utility

from test_utility import ScaledLog

LINK = LinkBudget(snr_gap_db=8.2)


# ---------------------------------------------------------------------------
# per-frame references


def reference_allocate(c, utilities, weights=None):
    """One frame: the active-set closed form or the multiplier bisection."""
    c = np.asarray(c, dtype=float)
    n = c.size
    u = as_utility(utilities, n)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    zero_marginals = w * u.marginal_share(c, 0.0)
    if np.all(zero_marginals == 0.0):
        return np.full(n, 1.0 / n), 0.0
    if isinstance(u, LogUtility):
        with np.errstate(divide="ignore"):
            a_over_c = u.concavity / c
        order = np.argsort(-zero_marginals, kind="stable")
        candidates = order[zero_marginals[order] > 0]
        w_cum = np.cumsum(w[candidates])
        aoc_cum = np.cumsum(a_over_c[candidates])
        shares = np.zeros(n)
        for k in range(candidates.size):
            lam = w_cum[k] / (1.0 + aoc_cum[k])
            if k + 1 == candidates.size or lam > zero_marginals[candidates[k + 1]]:
                active = candidates[: k + 1]
                shares[active] = w[active] / lam - a_over_c[active]
                break
        shares = np.maximum(shares, 0.0)
        return shares / shares.sum(), lam
    live = (w > 0) & (c > 0)
    w_live = np.where(live, w, 1.0)

    def shares_at(lam):
        return np.where(live, u.inverse_marginal_share(c, lam / w_live), 0.0)

    hi = float(np.max(zero_marginals))
    lo = float(np.min((w * u.marginal_share(c, 1.0))[zero_marginals > 0]))
    for _ in range(MAX_BISECT):
        lam = 0.5 * (lo + hi)
        total = shares_at(lam).sum()
        if abs(total - 1.0) <= SIMPLEX_TOL:
            break
        if total > 1.0:
            lo = lam
        else:
            hi = lam
    else:
        raise AssertionError("reference bisection did not converge")
    shares = shares_at(lam)
    return shares / shares.sum(), lam


def reference_frames(config):
    """(shares, rates) of each frame, one policy decision per frame."""
    link, model, utility = config.link(), config.channel(), config.utilities()
    n = config.n_users
    state = GradientSchedulerState(np.zeros(n), config.smoothing)
    if config.policy == "qtsl":
        quantizers = [Quantizer.equal_probability(m, config.feedback_bits) for m in model.mean_gains]
        scheduler = QuantizedScheduler(
            utility, quantizers, model.mean_gains, link, config.n_slots or n
        )
    for t in range(config.n_frames):
        gains = sample_gains(model, config.seed, t)
        rates = achievable_rate(gains, link.transmit_power, link)
        if config.policy == "gs":
            chosen = select_user(state, rates, utility)
            shares = np.zeros(n)
            shares[chosen] = 1.0
            state = update_state(state, chosen, rates[chosen])
        elif config.policy == "qtsl":
            states = np.array([quantize(g, q) for g, q in zip(gains, quantizers)])
            shares = scheduler.shares(scheduler.greedy_allocate(states))
        else:
            shares, _ = reference_allocate(rates, utility)
        yield shares, rates


def reference_run(config):
    """The per-frame statistics loop."""
    utility = config.utilities()
    n = config.n_users
    rate_sum, rate_sq_sum, share_sum, util_sum = (np.zeros(n) for _ in range(4))
    degenerate = 0
    for shares, rates in reference_frames(config):
        if not np.any(rates > 0):
            degenerate += 1
        r = shares * rates
        rate_sum += r
        rate_sq_sum += r * r
        share_sum += shares
        util_sum += utility.value(r)
    frames = config.n_frames
    mean_rate = rate_sum / frames
    mean_utility = util_sum / frames
    return {
        "taur": float(mean_utility.sum()),
        "mean_rate": mean_rate,
        "rate_std": np.sqrt(np.maximum(rate_sq_sum / frames - mean_rate**2, 0.0)),
        "occupancy": share_sum / frames,
        "mean_utility": mean_utility,
        "degenerate_frames": degenerate,
    }


def assert_stats_equal(stats, expected):
    assert stats.taur == expected["taur"]
    assert stats.degenerate_frames == expected["degenerate_frames"]
    for name in ("mean_rate", "rate_std", "occupancy", "mean_utility"):
        assert np.array_equal(getattr(stats, name), expected[name]), name


def rate_matrix(rng, frames, n):
    rates = rng.exponential(2.0, size=(frames, n)) * 10.0 ** rng.uniform(-2, 2, size=(frames, n))
    rates[rng.random((frames, n)) < 0.15] = 0.0
    rates[min(3, frames - 1)] = 0.0  # one degenerate frame
    return rates


# ---------------------------------------------------------------------------


class TestAllocatorRows:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
    def test_log_family_rows_equal_reference(self, n):
        rng = np.random.default_rng(100 + n)
        rates = rate_matrix(rng, 200, n)
        utility = LogUtility(rng.uniform(0.05, 10.0, size=n))
        weights = rng.uniform(0.0, 1.0, size=n)
        weights[0] = 0.0
        for w in (None, weights):
            shares, solve = allocate_ts(rates, utility, weights=w)
            assert solve.multiplier.shape == solve.iterations.shape == (200,)
            weighted = rates * (1.0 if w is None else w)
            assert solve.degenerate == np.count_nonzero(~np.any(weighted > 0, axis=1))
            assert np.array_equal(solve.active_set, np.flatnonzero(shares > 0))
            for t in range(rates.shape[0]):
                expected, lam = reference_allocate(rates[t], utility, w)
                assert np.array_equal(shares[t], expected), t
                assert solve.multiplier[t] == lam, t

    def test_generic_path_through_column_adapter(self):
        rng = np.random.default_rng(7)
        n = 4
        rates = rate_matrix(rng, 60, n)
        utilities = [ScaledLog(a) for a in rng.uniform(0.1, 3.0, size=n)]
        shares, solve = allocate_ts(rates, utilities)
        assert np.all(solve.iterations[rates.any(axis=1)] > 0)
        for t in range(rates.shape[0]):
            expected, lam = reference_allocate(rates[t], utilities)
            assert np.array_equal(shares[t], expected), t
            assert solve.multiplier[t] == lam, t
            single, one = allocate_ts(rates[t], utilities)
            assert np.array_equal(single, shares[t]) and one.iterations == solve.iterations[t]

    def test_unconverged_bisection_names_a_frame(self, monkeypatch):
        import utilsched.timeshare as timeshare_module

        monkeypatch.setattr(timeshare_module, "MAX_BISECT", 3)
        rates = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.5]])
        with pytest.raises(ConvergenceError, match=r"in 3 steps on 2 frame\(s\), first frame 0") as info:
            allocate_ts(rates, [ScaledLog(0.1), ScaledLog(1.0)])
        assert info.value.diagnostics["frame"] == 0

    def test_generic_path_converges_on_huge_and_tiny_rates(self):
        # a 1e300 rate opens a bracket that takes over 1,000 halvings to close
        rates = np.array([[1e300, 1.0], [1e300, 1e300], [1e-300, 1e300]])
        utilities = [ScaledLog(0.5), ScaledLog(1.0)]
        shares, solve = allocate_ts(rates, utilities)
        closed_form, _ = allocate_ts(rates, LogUtility(np.array([0.5, 1.0])))
        assert np.array_equal(shares, closed_form)
        assert np.all(solve.iterations > 1000)
        for t in range(rates.shape[0]):
            expected, lam = reference_allocate(rates[t], utilities)
            assert np.array_equal(shares[t], expected), t
            assert solve.multiplier[t] == lam, t

    def test_single_frame_solve_is_scalar(self):
        shares, solve = allocate_ts([2.0, 1.0], LogUtility(0.1))
        assert shares.shape == (2,)
        assert np.ndim(solve.multiplier) == 0 and isinstance(solve.iterations, int)
        assert f"{solve.multiplier:.4f}" == "1.7391"

    def test_three_axes_rejected(self):
        with pytest.raises(ValueError):
            allocate_ts(np.ones((2, 2, 2)), LogUtility(0.1))


class TestBlockFrameLoop:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("frames", [BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1])
    def test_ts_equal_per_frame_loop(self, n, frames):
        snr = np.linspace(0.0, 15.0, n)
        config = ExperimentConfig(n_users=n, mean_snr_db=snr, n_frames=frames, seed=n)
        assert_stats_equal(run_experiment(config), reference_run(config))

    @pytest.mark.parametrize("extra", [
        {"policy": "gs", "n_users": 4},
        {"policy": "gs", "n_users": 1},
        {"policy": "qtsl", "n_users": 3, "n_slots": 5, "feedback_bits": 2},
        # 4 x 1024 increments per frame: the qtsl blocks shrink to 16 frames
        {"policy": "qtsl", "n_users": 4, "n_slots": 1024, "feedback_bits": 1},
    ])
    def test_gs_and_qtsl_equal_per_frame_loop(self, extra):
        config = ExperimentConfig(n_frames=BLOCK_FRAMES + 30, seed=4, **extra)
        assert_stats_equal(run_experiment(config), reference_run(config))

    def test_heterogeneous_concavity(self):
        config = ExperimentConfig(n_users=3, concavity=[0.1, 1.0, 10.0], mean_snr_db=[0.0, 20.0, 10.0],
                                  n_frames=BLOCK_FRAMES + 5, seed=11)
        assert_stats_equal(run_experiment(config), reference_run(config))


class TestSampleAverages:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 9])
    def test_average_utilities_equal_per_sample_loop(self, n):
        rng = np.random.default_rng(n)
        rates = rate_matrix(rng, 500, n)
        utility = LogUtility(rng.uniform(0.05, 5.0, size=n))
        weights = rng.dirichlet(np.ones(n))
        expected = np.zeros(n)
        for frame in rates:
            shares, _ = reference_allocate(frame, utility, weights)
            expected += utility.value(shares * frame)
        assert np.array_equal(average_utilities(rates, utility, weights), expected / 500)

    def test_average_utilities_generic_path(self):
        rng = np.random.default_rng(3)
        rates = rate_matrix(rng, 80, 3)
        utilities = [ScaledLog(a) for a in (0.1, 1.0, 5.0)]
        weights = np.array([0.2, 0.3, 0.5])
        expected = np.zeros(3)
        for frame in rates:
            shares, _ = reference_allocate(frame, utilities, weights)
            expected += as_utility(utilities, 3).value(shares * frame)
        assert np.array_equal(average_utilities(rates, utilities, weights), expected / 80)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 9])
    def test_constant_power_objective_equals_per_sample_loop(self, n):
        rng = np.random.default_rng(20 + n)
        gains = rng.exponential(1.0, size=(300, n))
        gains[5] = 0.0
        utility = LogUtility(rng.uniform(0.05, 5.0, size=n))
        budgets = rng.uniform(0.5, 2.0, size=n)
        total = 0.0
        for frame in gains:
            rates = achievable_rate(frame, budgets, LINK)
            shares, _ = reference_allocate(rates, utility)
            total += aggregate_utility(shares, rates, utility)
        assert constant_power_objective(gains, utility, budgets, LINK) == total / 300


class TestSharesInvariant:
    def test_bad_shares_raise_invariant_error_naming_the_frame(self, monkeypatch):
        import utilsched.simulate as simulate_module

        real = simulate_module.allocate_ts

        def short_by_a_tenth(rates, utility, weights=None):
            shares, solve = real(rates, utility, weights=weights)
            shares[7:] *= 0.9
            return shares, solve

        monkeypatch.setattr(simulate_module, "allocate_ts", short_by_a_tenth)
        config = ExperimentConfig(n_users=1, policy="ts", n_frames=20)
        with pytest.raises(InvariantError, match=r"frame 7: shares sum to 0\.9"):
            run_experiment(config)
        # not a numeric failure: it escapes the sweep instead of filling a row
        with pytest.raises(InvariantError):
            sweep([config])
