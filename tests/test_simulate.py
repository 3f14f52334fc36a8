import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import (
    ChannelModel,
    ExperimentConfig,
    LinkBudget,
    LogUtility,
    achievable_rate,
    run_experiment,
    sample_gains,
    sweep,
)
from utilsched import simulate as simulate_module


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(users=0)
        with pytest.raises(ValueError):
            ExperimentConfig(users=2, frames=0)
        with pytest.raises(ValueError):
            ExperimentConfig(users=2, policy="nope")
        # a fractional knob fails before any work, not in the run's quantizer
        for key, value in (("feedback_bits", 2.5), ("slots", 1.5)):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig(policy="qtsl", **{key: value})
        # a fractional seed would draw the stream of its integer part
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=1.5, frames=5)
        # a fractional count fails at construction, not in the run's range()
        for key, value in (("users", 2.5), ("frames", 10.5)):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig(**{key: value})
        for key, value in (("training_samples", 20.5), ("max_iterations", 2.5)):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig(policy="jtpc", **{key: value})

    def test_channel_matches_snr(self):
        config = ExperimentConfig(users=3, mean_snr_db=10.0, snr_gap_db=8.2)
        assert_allclose(config.channel().mean_gains, np.full(3, 10.0))


class TestRunExperiment:
    def test_single_user_ts(self):
        config = ExperimentConfig(users=1, mean_snr_db=5.0, policy="ts",
                                  frames=500, seed=3)
        stats = run_experiment(config)
        link, model = config.link(), config.channel()
        rates = np.array([
            float(achievable_rate(sample_gains(model, 3, t)[0], 1.0, link))
            for t in range(500)
        ])
        u = LogUtility(0.1)
        assert_allclose(stats.occupancy, [1.0])
        assert_allclose(stats.mean_rate, [rates.mean()], rtol=1e-12)
        assert_allclose(stats.rate_std, [rates.std()], rtol=1e-10)
        assert_allclose(stats.taur, u.value(rates).mean(), rtol=1e-12)

    def test_taur_equals_sum_of_mean_utilities(self):
        config = ExperimentConfig(users=3, policy="ts", frames=300, seed=1)
        stats = run_experiment(config)
        assert_allclose(stats.taur, stats.mean_utility.sum(), rtol=1e-12)

    def test_deterministic(self):
        config = ExperimentConfig(users=4, policy="ts", frames=400, seed=9)
        a, b = run_experiment(config), run_experiment(config)
        assert a.taur == b.taur
        assert np.array_equal(a.mean_rate, b.mean_rate)
        assert np.array_equal(a.rate_std, b.rate_std)

    def test_symmetric_users_equal_mean_rates(self):
        config = ExperimentConfig(users=4, mean_snr_db=10.0, policy="ts",
                                  frames=4000, seed=2)
        stats = run_experiment(config)
        se = stats.rate_std / np.sqrt(config.frames)
        spread = stats.mean_rate.max() - stats.mean_rate.min()
        assert spread <= 3 * 2 * se.max()

    def test_gs_boosts_mean_rate_but_oscillates_more(self):
        base = dict(users=8, mean_snr_db=10.0, snr_gap_db=8.2,
                    concavity=0.1, frames=3000, seed=4)
        ts = run_experiment(ExperimentConfig(policy="ts", **base))
        gs = run_experiment(ExperimentConfig(policy="gs", **base))
        assert gs.mean_rate.mean() >= ts.mean_rate.mean()
        assert gs.rate_std.mean() >= ts.rate_std.mean()

    def test_gs_occupancy_is_selection_frequency(self):
        config = ExperimentConfig(users=3, policy="gs", frames=600, seed=6)
        stats = run_experiment(config)
        assert_allclose(stats.occupancy.sum(), 1.0, atol=1e-12)

    def test_qtsl_shares_are_slot_multiples(self):
        config = ExperimentConfig(users=3, policy="qtsl", slots=4,
                                  feedback_bits=2, frames=50, seed=5)
        stats = run_experiment(config)
        assert_allclose(stats.occupancy.sum(), 1.0, atol=1e-12)

    def test_jtpc_runs_and_respects_budget(self):
        config = ExperimentConfig(
            users=2, mean_snr_db=5.0, policy="jtpc", power_budget=1.0,
            frames=300, training_samples=80, seed=7,
        )
        stats = run_experiment(config)
        assert stats.taur > 0
        assert stats.n_frames == 300

    def test_jtpc_blocks_match_one_block(self, monkeypatch):
        config = ExperimentConfig(
            users=2, mean_snr_db=0.0, policy="jtpc", frames=250, training_samples=60,
        )
        one = run_experiment(config)
        calls = []
        apply = simulate_module.apply_policy
        monkeypatch.setattr(simulate_module, "apply_policy", lambda *a: calls.append(1) or apply(*a))
        # 100-frame blocks: 100 + 100 + 50
        monkeypatch.setattr(simulate_module, "MAX_JTPC_ENTRIES", 200)
        blocks = run_experiment(config)
        assert len(calls) == 3
        for name in ("taur", "mean_rate", "rate_std", "occupancy", "mean_utility"):
            assert np.array_equal(getattr(blocks, name), getattr(one, name)), name

    def test_memory_is_bounded_by_the_block(self):
        # frames are reduced block by block: ten times the blocks, the same peak
        run_experiment(ExperimentConfig(users=8, frames=5))  # first-call caches
        peaks = []
        for blocks in (3, 30):
            config = ExperimentConfig(users=8, frames=blocks * simulate_module.BLOCK_FRAMES)
            tracemalloc.start()
            try:
                run_experiment(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestSweep:
    def test_single_entry_matches_run(self):
        config = ExperimentConfig(users=2, policy="ts", frames=200, seed=3)
        entry = sweep([config])[0]
        direct = run_experiment(config)
        assert entry.error is None
        assert entry.stats.taur == direct.taur

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_errors_collected_not_fatal(self):
        good = ExperimentConfig(users=2, policy="ts", frames=50, seed=1)
        # gains near 1e308 overflow, so the statistics are not finite
        bad = ExperimentConfig(users=2, policy="ts", mean_snr_db=3080.0, frames=50)
        entries = sweep([bad, good])
        assert isinstance(entries[0].error, FloatingPointError)
        assert entries[1].error is None

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_rows_keep_order(self):
        configs = [
            ExperimentConfig(users=2, concavity=a, policy="ts", frames=100, seed=1)
            for a in (0.1, 1.0, 10.0)
        ]
        entries = sweep(configs)
        assert [e.config.concavity for e in entries] == [0.1, 1.0, 10.0]


def test_programming_error_escapes_sweep(monkeypatch):
    def broken(config):
        raise TypeError("not a numeric failure")

    monkeypatch.setattr(simulate_module, "run_experiment", broken)
    with pytest.raises(TypeError):
        sweep([ExperimentConfig(users=2, policy="ts", frames=10)])
