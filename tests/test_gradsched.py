import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import (
    ChannelModel,
    GradientSchedulerState,
    LinkBudget,
    LogUtility,
    achievable_rate,
    sample_gains,
    select_user,
    update_state,
)
from utilsched.gradsched import _schedule_frames
from utilsched.simulate import BLOCK_FRAMES

from test_utility import ScaledLog


class TestState:
    def test_validation(self):
        with pytest.raises(ValueError):
            GradientSchedulerState(np.array([1.0]), smoothing=0.0)
        with pytest.raises(ValueError):
            GradientSchedulerState(np.array([1.0]), smoothing=1.0)
        with pytest.raises(ValueError):
            GradientSchedulerState(np.array([-1.0]))

    def test_nan_average_raises(self):
        with pytest.raises(ValueError):
            GradientSchedulerState(np.array([np.nan, 1.0]))
        state = GradientSchedulerState(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            update_state(state, 0, float("nan"))


class TestSelect:
    def test_single_user(self):
        state = GradientSchedulerState(np.zeros(1))
        assert select_user(state, [2.0], LogUtility(1.0)) == 0

    def test_equal_weights_reduce_to_argmax_rate(self):
        state = GradientSchedulerState(np.array([1.0, 1.0]))
        assert select_user(state, [1.0, 3.0], LogUtility(1.0)) == 1

    def test_average_rate_weighting(self):
        # scores 2/(1+1) = 1.0 vs 2/(1+3) = 0.5: the starved user wins
        state = GradientSchedulerState(np.array([1.0, 3.0]))
        assert select_user(state, [2.0, 2.0], LogUtility(1.0)) == 0

    def test_rescaling_rates_keeps_choice(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            state = GradientSchedulerState(rng.uniform(0.0, 4.0, size=n))
            rates = rng.uniform(0.0, 5.0, size=n)
            utils = [LogUtility(rng.uniform(0.1, 3.0)) for _ in range(n)]
            scale = rng.uniform(0.1, 50.0)
            assert select_user(state, rates, utils) == select_user(state, scale * rates, utils)

    def test_tie_breaks_to_lowest_index(self):
        state = GradientSchedulerState(np.array([1.0, 1.0, 1.0]))
        assert select_user(state, [2.0, 2.0, 2.0], LogUtility(1.0)) == 0


class TestUpdate:
    def test_update_formula(self):
        state = GradientSchedulerState(np.array([1.0, 1.0]), smoothing=0.1)
        new = update_state(state, selected=0, peak_rate=3.0)
        assert_allclose(new.avg_rates, [1.2, 0.9], rtol=1e-12)

    def test_fixed_point_when_rate_equals_average(self):
        state = GradientSchedulerState(np.array([2.0, 1.0]), smoothing=0.2)
        new = update_state(state, selected=0, peak_rate=2.0)
        assert_allclose(new.avg_rates[0], 2.0, rtol=1e-12)

    def test_unselected_decay_exactly(self):
        state = GradientSchedulerState(np.array([1.5, 2.5, 0.5]), smoothing=0.3)
        new = update_state(state, selected=1, peak_rate=1.0)
        assert_allclose(new.avg_rates[[0, 2]], 0.7 * state.avg_rates[[0, 2]], rtol=1e-12)

    def test_is_functional(self):
        state = GradientSchedulerState(np.array([1.0, 1.0]))
        update_state(state, 0, 5.0)
        assert_allclose(state.avg_rates, [1.0, 1.0])

    def test_averages_stay_in_observed_range(self):
        rng = np.random.default_rng(8)
        state = GradientSchedulerState(np.zeros(3), smoothing=0.1)
        max_rate = 0.0
        for _ in range(500):
            rates = rng.uniform(0.0, 4.0, size=3)
            max_rate = max(max_rate, rates.max())
            chosen = select_user(state, rates, LogUtility(0.5))
            state = update_state(state, chosen, rates[chosen])
            assert np.all(state.avg_rates >= 0.0)
            assert np.all(state.avg_rates <= max_rate + 1e-12)


class TestLongRunFairness:
    def test_symmetric_selection_frequencies(self):
        # symmetric channels and equal utilities: per-user selection counts
        # agree with uniform within three standard errors over 1e5 frames
        n, frames = 4, 100_000
        link = LinkBudget(snr_gap_db=8.2)
        model = ChannelModel.from_snr_db(np.full(n, 10.0), link)
        u = LogUtility(0.1)
        state = GradientSchedulerState(np.zeros(n), smoothing=0.01)
        counts = np.zeros(n)
        for t in range(frames):
            rates = achievable_rate(sample_gains(model, 77, t), 1.0, link)
            chosen = select_user(state, rates, u)
            counts[chosen] += 1
            state = update_state(state, chosen, rates[chosen])
        p = 1.0 / n
        se = np.sqrt(p * (1 - p) * frames)
        assert np.all(np.abs(counts - p * frames) <= 3 * se)


def public_loop(state, rates, utilities):
    """The per-frame recursion through the public functions."""
    chosen = []
    for frame_rates in rates:
        k = select_user(state, frame_rates, utilities)
        state = update_state(state, k, frame_rates[k])
        chosen.append(k)
    return np.array(chosen), state.avg_rates


class TestScheduleFrames:
    """The array recursion that ``run_experiment`` runs equals the public loop bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("frames", [BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1])
    def test_equals_public_loop(self, n, frames):
        rng = np.random.default_rng(100 * n + frames)
        rates = rng.exponential(2.0, size=(frames, n))
        rates[rng.random(rates.shape) < 0.05] = 0.0
        for utilities in (LogUtility(0.1), LogUtility(rng.uniform(0.1, 10.0, n)),
                          [ScaledLog(a) for a in rng.uniform(0.1, 10.0, n)]):
            state = GradientSchedulerState(rng.uniform(0.0, 1.0, n), smoothing=0.01)
            start = state.avg_rates.copy()
            chosen, avg = _schedule_frames(state.avg_rates, state.smoothing, rates, utilities)
            expected_chosen, expected_avg = public_loop(state, rates, utilities)
            assert np.array_equal(chosen, expected_chosen)
            assert np.array_equal(avg, expected_avg)
            assert np.array_equal(state.avg_rates, start)  # the input averages are left as they were

    def test_tied_scores_go_to_lowest_index(self):
        # equal averages and equal rates tie every user in every frame until
        # the averages part; all-zero frames tie at score 0
        rates = np.vstack([np.full((20, 4), 2.0), np.zeros((5, 4)), np.full((20, 4), 2.0)])
        state = GradientSchedulerState(np.zeros(4), smoothing=0.25)
        chosen, avg = _schedule_frames(state.avg_rates, state.smoothing, rates, LogUtility(1.0))
        expected_chosen, expected_avg = public_loop(state, rates, LogUtility(1.0))
        assert chosen[0] == 0
        assert np.array_equal(chosen, expected_chosen)
        assert np.array_equal(avg, expected_avg)

    def test_blocks_chained_equal_one_pass(self):
        # run_experiment carries the averages from one block to the next
        rng = np.random.default_rng(5)
        rates = rng.exponential(1.0, size=(2 * BLOCK_FRAMES + 3, 3))
        state = GradientSchedulerState(np.full(3, 0.5), smoothing=0.05)
        avg, chosen = state.avg_rates, []
        for start in range(0, len(rates), BLOCK_FRAMES):
            block = rates[start : start + BLOCK_FRAMES]
            block_chosen, avg = _schedule_frames(avg, state.smoothing, block, LogUtility(0.3))
            chosen.append(block_chosen)
        expected_chosen, expected_avg = public_loop(state, rates, LogUtility(0.3))
        assert np.array_equal(np.concatenate(chosen), expected_chosen)
        assert np.array_equal(avg, expected_avg)
