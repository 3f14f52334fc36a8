import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import (
    ChannelModel,
    LinkBudget,
    Quantizer,
    achievable_rate,
    quantize,
    sample_gains,
)
from utilsched.channel import MAX_FEEDBACK_BITS


class TestLinkBudget:
    def test_invariants(self):
        with pytest.raises(ValueError):
            LinkBudget(noise_power=0.0)
        with pytest.raises(ValueError):
            LinkBudget(snr_gap_db=-1.0)
        with pytest.raises(ValueError):
            LinkBudget(transmit_power=-0.5)

    def test_snr_gap_linear(self):
        assert_allclose(LinkBudget(snr_gap_db=8.2).snr_gap, 10**0.82)
        assert LinkBudget().snr_gap == 1.0


class TestChannelModel:
    def test_zero_mean_gain_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ChannelModel(np.array([]))

    def test_from_snr_db(self):
        link = LinkBudget(noise_power=2.0, transmit_power=4.0)
        model = ChannelModel.from_snr_db([0.0, 10.0], link)
        # mean gain recovers the requested average SNR p*E[g]/N0
        assert_allclose(model.mean_gains * link.transmit_power / link.noise_power, [1.0, 10.0])

    def test_means_are_an_owned_read_only_copy(self):
        means = np.array([1.0, 2.0])
        model = ChannelModel(means)
        expected = sample_gains(model, 0, 3)
        means[0] = 5.0
        assert np.array_equal(model.mean_gains, [1.0, 2.0])
        assert np.array_equal(sample_gains(model, 0, 3), expected)
        with pytest.raises(ValueError):
            model.mean_gains[0] = 5.0


class TestSampleGains:
    def test_deterministic_per_frame(self):
        model = ChannelModel(np.array([1.0, 2.0, 0.5]))
        a = sample_gains(model, seed=42, frame_index=7)
        b = sample_gains(model, seed=42, frame_index=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_gains(model, seed=42, frame_index=8))
        assert not np.array_equal(a, sample_gains(model, seed=43, frame_index=7))

    def test_sample_mean_matches_law_of_large_numbers(self):
        # 10^6 draws of mean 2.0: sample mean within [1.99, 2.01]
        # (five standard errors; se = 2/sqrt(1e6) = 0.002)
        model = ChannelModel(np.full(1000, 2.0))
        draws = np.stack([sample_gains(model, seed=1, frame_index=t) for t in range(1000)])
        assert 1.99 <= draws.mean() <= 2.01

    def test_gains_nonnegative(self):
        model = ChannelModel(np.array([0.3, 3.0]))
        gains = np.stack([sample_gains(model, 0, t) for t in range(100)])
        assert np.all(gains >= 0)


class TestAchievableRate:
    def test_unit_snr_gives_rate_one(self):
        link = LinkBudget()
        assert_allclose(achievable_rate(1.0, 1.0, link), 1.0)
        assert_allclose(achievable_rate(3.0, 1.0, link), 2.0)

    def test_snr_gap_example(self):
        # gain equal to the linear 8.2 dB gap cancels it exactly
        link = LinkBudget(snr_gap_db=8.2)
        assert_allclose(achievable_rate(10**0.82, 1.0, link), 1.0, rtol=1e-12)

    def test_zero_cases(self):
        link = LinkBudget(snr_gap_db=3.0)
        assert achievable_rate(0.0, 1.0, link) == 0.0
        assert achievable_rate(1.0, 0.0, link) == 0.0

    def test_monotone_and_concave_in_power(self):
        link = LinkBudget(snr_gap_db=5.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.uniform(0.1, 10.0)
            p = rng.uniform(0.1, 10.0)
            h = 1e-4
            up, down = achievable_rate(g, p + h, link), achievable_rate(g, p - h, link)
            mid = achievable_rate(g, p, link)
            assert up > mid > down  # increasing in power
            assert up + down - 2 * mid < 0  # concave in power
            assert achievable_rate(g + h, p, link) > mid  # increasing in gain


class TestQuantizer:
    def test_single_bin(self):
        th = Quantizer(1.0, 0).thresholds
        assert th[0] == 0.0 and np.isinf(th[1]) and th.size == 2

    def test_unit_mean_four_bins(self):
        # inverse CDF of the unit exponential at 1/4, 1/2, 3/4
        th = Quantizer(1.0, 2).thresholds
        expect = [0.0, -np.log(0.75), -np.log(0.5), -np.log(0.25)]
        assert_allclose(th[:4], expect, rtol=1e-12)
        assert_allclose(th[1:4], [0.287682, 0.693147, 1.386294], atol=1e-6)

    def test_mean_two_two_bins(self):
        th = Quantizer(2.0, 1).thresholds
        assert_allclose(th[1], 2 * np.log(2.0), rtol=1e-12)

    def test_rejects_non_power_of_two(self):
        # the state count is 2**feedback_bits by construction; a mean <= 0 is still rejected
        with pytest.raises(ValueError):
            Quantizer(0.0, 1)

    def test_per_user_rows_are_the_scalar_quantizers(self):
        means = np.array([1.0, 2.0, 0.37, 1e3])
        for bits in (0, 1, 2, 5):
            q = Quantizer(means, bits)
            assert q.thresholds.shape == (4, 2**bits + 1)
            k = np.arange(2**bits)
            for j, mean in enumerate(means):
                row = q.for_user(j).thresholds
                assert row.tobytes() == Quantizer(mean, bits).thresholds.tobytes()
                assert row.tobytes() == q.thresholds[j].tobytes()
                assert_allclose(row[:-1], -mean * np.log(1 - k / 2**bits), rtol=1e-12)
                assert np.isinf(row[-1])
        assert Quantizer(2.0, 3).for_user(5).thresholds.tobytes() == Quantizer(2.0, 3).thresholds.tobytes()

    @pytest.mark.parametrize("bits", [-1, 2.5, 17, 30])
    def test_bits_bounded_before_any_allocation(self, bits):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"feedback_bits must lie in 0\.\.{MAX_FEEDBACK_BITS}"):
                Quantizer([1.0, 2.0], bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # 17 bits would take 1 MiB of thresholds per user

    @pytest.mark.parametrize(
        "means", [np.nan, np.inf, 0.0, -1.0, [1.0, np.nan], [1.0, -np.inf], [1.0, 0.0], [[1.0, 2.0]]]
    )
    def test_rejects_bad_means(self, means):
        with pytest.raises(ValueError, match="mean_gains must be finite and > 0"):
            Quantizer(means, 2)

    def test_block_equals_per_user_columns(self):
        means = np.array([0.5, 2.0, 7.0])
        rng = np.random.default_rng(11)
        for bits in (0, 3, 10):
            q = Quantizer(means, bits)
            gains = rng.exponential(means, size=(200, 3))
            gains[:3] = q.thresholds[:, [0, 1, -2]].T  # bin edges are closed on the left
            states = quantize(gains, q)
            assert states.shape == gains.shape
            for j in range(3):
                column = np.searchsorted(q.thresholds[j], gains[:, j], side="right")
                assert states[:, j].tobytes() == column.tobytes()
        assert np.array_equal(quantize(gains[7], q), states[7])
        with pytest.raises(ValueError):
            quantize(gains[:, :2], q)


class TestQuantize:
    def setup_method(self):
        self.q = Quantizer(1.0, 2)  # thresholds 0, .2877, .6931, 1.3863, inf

    def test_zero_gain_first_state(self):
        assert quantize(0.0, self.q) == 1

    def test_bracket_lookup(self):
        assert quantize(0.5, self.q) == 2

    def test_last_bin_unbounded(self):
        assert quantize(1e9, self.q) == 4

    def test_left_closed_bins(self):
        for k in range(1, self.q.n_states + 1):
            assert quantize(self.q.thresholds[k - 1], self.q) == k

    def test_vectorized(self):
        states = quantize(np.array([0.0, 0.5, 1e9]), self.q)
        assert np.array_equal(states, [1, 2, 4])

    def test_empirical_bin_frequencies(self):
        # each bin should collect 1/K of >= 1e5 draws within four standard errors
        mean = 1.7
        bits = 3
        k = 2**bits
        q = Quantizer(mean, bits)
        model = ChannelModel(np.full(100, mean))
        gains = np.concatenate(
            [sample_gains(model, seed=9, frame_index=t) for t in range(1200)]
        )
        states = quantize(gains, q)
        counts = np.bincount(states, minlength=k + 1)[1:]
        p = 1.0 / k
        se = np.sqrt(p * (1 - p) * gains.size)
        assert np.all(np.abs(counts - p * gains.size) <= 4 * se)
