import numpy as np
import pytest
from numpy.testing import assert_allclose

import utilsched.quantized as quantized_module
from utilsched import (
    LinkBudget,
    LogUtility,
    Quantizer,
    QuantizedScheduler,
    achievable_rate,
    bin_expected_utility,
)
from oracles import exhaustive_allocate, slot_compositions

LINK = LinkBudget(snr_gap_db=8.2)


def make_scheduler(means, concavities, bits, slots, link=LINK):
    means = np.asarray(means, dtype=float)
    utilities = [LogUtility(a) for a in np.broadcast_to(concavities, means.shape)]
    return QuantizedScheduler(utilities, Quantizer(means, bits), link, slots)


class TestBinExpectedUtility:
    def test_zero_share_zero_utility(self):
        q = Quantizer(1.0, 2)
        assert bin_expected_utility(LogUtility(0.1), 0.0, 3, q, LINK) == 0.0

    def test_single_bin_matches_monte_carlo(self):
        # K = 1 reduces to the unconditional expectation
        u = LogUtility(0.1)
        q = Quantizer(1.5, 0)
        value = bin_expected_utility(u, 0.6, 1, q, LINK)
        rng = np.random.default_rng(0)
        draws = u.value(0.6 * achievable_rate(rng.exponential(1.5, size=10**6), 1.0, LINK))
        assert abs(value - draws.mean()) <= 3 * draws.std() / 1000

    def test_per_bin_values_match_monte_carlo(self):
        u = LogUtility(0.5)
        mean, bits = 2.0, 2
        q = Quantizer(mean, bits)
        rng = np.random.default_rng(1)
        gains = rng.exponential(mean, size=400_000)
        states = np.searchsorted(q.thresholds, gains, side="right")
        for k in range(1, 5):
            sample = u.value(0.5 * achievable_rate(gains[states == k], 1.0, LINK))
            value = bin_expected_utility(u, 0.5, k, q, LINK)
            assert abs(value - sample.mean()) <= 4 * sample.std() / np.sqrt(sample.size)

    def test_increasing_in_state(self):
        u = LogUtility(0.1)
        q = Quantizer(1.0, 3)
        values = [bin_expected_utility(u, 0.4, k, q, LINK) for k in range(1, 9)]
        assert np.all(np.diff(values) > 0)

    def test_input_validation(self):
        q = Quantizer(1.0, 1)
        with pytest.raises(ValueError):
            bin_expected_utility(LogUtility(0.1), 1.2, 1, q, LINK)
        with pytest.raises(ValueError):
            bin_expected_utility(LogUtility(0.1), 0.5, 3, q, LINK)

    def test_per_user_quantizer_raises(self):
        # one call has one mean gain: a per-user quantizer must go through for_user
        q = Quantizer([1.0, 5.0], 2)
        with pytest.raises(ValueError, match="for_user"):
            bin_expected_utility(LogUtility(0.1), 0.5, 3, q, LINK)
        assert bin_expected_utility(LogUtility(0.1), 0.5, 3, q.for_user(1), LINK) == (
            bin_expected_utility(LogUtility(0.1), 0.5, 3, Quantizer(5.0, 2), LINK)
        )


class TestIncrements:
    def test_strictly_decreasing(self):
        sched = make_scheduler([1.0, 4.0], 0.1, bits=3, slots=6)
        for user in range(2):
            for state in range(1, 9):
                inc = sched.increments(user, state)
                assert np.all(np.diff(inc) < 0)

    def test_table_cached(self, monkeypatch):
        calls = []
        real = quantized_module.bin_expected_utility

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(quantized_module, "bin_expected_utility", counting)
        sched = make_scheduler([1.0, 2.0], 0.1, bits=1, slots=3)
        states = [1, 2]
        sched.greedy_allocate(states)
        first = len(calls)
        # each touched (user, state) needs slots + 1 quadratures, nothing more
        assert first <= sched.n_users * (sched.n_slots + 1)
        sched.greedy_allocate(states)
        assert len(calls) == first


class TestGreedy:
    def test_single_user_takes_all_slots(self):
        sched = make_scheduler([2.0], 0.1, bits=2, slots=5)
        assert_allclose(sched.greedy_allocate([3]), [5])

    def test_symmetric_tie_splits(self):
        sched = make_scheduler([2.0, 2.0], 0.1, bits=2, slots=2)
        assert_allclose(sched.greedy_allocate([2, 2]), [1, 1])

    def test_single_slot_goes_to_better_state(self):
        sched = make_scheduler([2.0, 2.0], 0.1, bits=2, slots=1)
        # brute force the two candidate allocations
        win_1 = sched.objective([3, 2], [1, 0])
        win_2 = sched.objective([3, 2], [0, 1])
        assert win_1 > win_2
        assert_allclose(sched.greedy_allocate([3, 2]), [1, 0])

    def test_dominated_extra_user_changes_nothing(self):
        base = make_scheduler([2.0, 3.0], 0.1, bits=2, slots=4)
        counts = base.greedy_allocate([4, 3])
        # a user whose best increment sits below every chosen one gets nothing
        extended = make_scheduler([2.0, 3.0, 1e-4], 0.1, bits=2, slots=4)
        counts3 = extended.greedy_allocate([4, 3, 1])
        assert_allclose(counts3[:2], counts)
        assert counts3[2] == 0


class TestExhaustive:
    def test_compositions_cover_simplex(self):
        combos = list(slot_compositions(4, 3))
        assert len(combos) == 15
        assert all(sum(c) == 4 for c in combos)
        assert combos == sorted(combos)

    def test_cap_enforced(self):
        sched = make_scheduler(np.full(5, 1.0), 0.1, bits=1, slots=3)
        with pytest.raises(ValueError):
            exhaustive_allocate(sched, [1] * 5)
        big = make_scheduler([1.0], 0.1, bits=1, slots=7)
        with pytest.raises(ValueError):
            exhaustive_allocate(big, [1])

    def test_greedy_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            slots = int(rng.integers(1, 7))
            bits = int(rng.integers(1, 4))
            sched = make_scheduler(
                rng.uniform(0.3, 20.0, size=n), float(rng.uniform(0.05, 5.0)), bits, slots
            )
            states = rng.integers(1, 2**bits + 1, size=n)
            greedy = sched.greedy_allocate(states)
            best = exhaustive_allocate(sched, states)
            assert sched.objective(states, greedy) == sched.objective(states, best)

    def test_exhaustive_at_least_greedy_always(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            sched = make_scheduler(rng.uniform(0.5, 5.0, size=3), 0.2, bits=2, slots=5)
            states = rng.integers(1, 5, size=3)
            assert (
                sched.objective(states, exhaustive_allocate(sched, states))
                >= sched.objective(states, sched.greedy_allocate(states))
            )


class TestValidation:
    def test_state_range_checked(self):
        sched = make_scheduler([1.0, 1.0], 0.1, bits=1, slots=2)
        with pytest.raises(ValueError):
            sched.greedy_allocate([0, 1])
        with pytest.raises(ValueError):
            sched.greedy_allocate([1, 3])
        with pytest.raises(ValueError):
            sched.greedy_allocate([1])

    def test_quantizer_count_checked(self):
        # the users are the quantizer's: two means against three utilities
        with pytest.raises(ValueError, match="expected 2"):
            QuantizedScheduler(LogUtility([0.1, 0.2, 0.3]), Quantizer([1.0, 2.0], 1), LINK, 2)
        with pytest.raises(ValueError, match="expected 2"):
            QuantizedScheduler([LogUtility(0.1)] * 3, Quantizer([1.0, 2.0], 1), LINK, 2)

    @pytest.mark.parametrize("excess", [1, 2**62])
    def test_slot_count_bounded_at_construction(self, excess):
        # raised by the constructor, before a table row of n_slots + 1 values exists
        limit = quantized_module.MAX_SLOTS
        for slots in (0, 1.5, limit + excess):
            with pytest.raises(ValueError, match=f"1..{limit}"):
                QuantizedScheduler(LogUtility(0.1), Quantizer([1.0, 2.0], 1), LINK, slots)
        sched = make_scheduler([1.0, 2.0], 0.1, bits=0, slots=limit)
        assert sched.greedy_allocate([1, 1]).sum() == limit

    @staticmethod
    def three_users():
        return make_scheduler([1.0, 2.0, 4.0], [0.1, 1.0, 10.0], bits=2, slots=4)

    def test_bad_user_leaves_the_cache_alone(self):
        # rows are keyed by state * N + user: user -1 at state 2 is user 2 at state 1
        fresh, sched = self.three_users(), self.three_users()
        for user in (-1, 3):
            with pytest.raises(ValueError, match=f"user must lie in 0..2, got {user}"):
                sched.share_utilities(user, 2)
            with pytest.raises(ValueError, match=f"user must lie in 0..2, got {user}"):
                sched.increments(user, 2)
        with pytest.raises(ValueError, match="user must be an integer"):
            sched.share_utilities(1.0, 2)
        assert np.array_equal(sched.share_utilities(2, 1), fresh.share_utilities(2, 1))
        assert sched.objective([4, 1, 1], [2, 1, 1]) == fresh.objective([4, 1, 1], [2, 1, 1])

    def test_non_integer_state_raises_naming_the_user(self):
        sched = self.three_users()
        for state in (2.5, 2.0):
            with pytest.raises(ValueError, match="state of user 0 must be an integer"):
                sched.share_utilities(0, state)
            with pytest.raises(ValueError, match="state of user 1 must be an integer"):
                sched.increments(1, state)
            with pytest.raises(ValueError, match="state must lie in 1..4 and be an integer"):
                bin_expected_utility(LogUtility(0.1), 0.5, state, Quantizer(1.0, 2), LINK)
        for state in (0, 5):
            with pytest.raises(ValueError, match=f"state {state} out of range for user 2"):
                sched.share_utilities(2, state)

    def test_fractional_states_are_not_truncated(self):
        # a float fails even when its value is whole, as a seed does
        sched = self.three_users()
        with pytest.raises(ValueError, match="state 1.5 is not an integer for user 0"):
            sched.greedy_allocate([1.5, 2.7, 4.9])
        with pytest.raises(ValueError, match="state 1.0 is not an integer for frame 0, user 0"):
            sched.greedy_allocate(np.ones((3, 3)))
        with pytest.raises(ValueError, match="not an integer"):
            sched.objective([4.0, 1.0, 1.0], [2, 1, 1])

    def test_narrow_integer_states_are_not_wrapped(self):
        # 200 * 2 users is 144 in uint8: the row key of user 0 at state 72
        sched = make_scheduler([1.0, 1.0], 0.1, bits=8, slots=8)
        for states in ([200, 100], [[200, 100], [200, 150]]):
            expected = sched.greedy_allocate(states)
            assert np.array_equal(sched.greedy_allocate(np.array(states, np.uint8)), expected)
        assert sched.objective(np.array([200, 100], np.uint8), [4, 4]) == sched.objective([200, 100], [4, 4])

    def test_objective_scores_only_feasible_splits(self):
        sched = self.three_users()
        states = [4, 1, 1]
        for counts in ([-1, 4, 1], [4, 4, 4], [4], [1.0, 2.0, 1.0], [2, 1, 1, 0], [5, -1, 0],
                       [2**63 - 1, 2**63 - 1, 6]):  # the last sums to 4 in int64
            with pytest.raises(ValueError, match="need 3 non-negative integer counts summing to 4"):
                sched.objective(states, counts)
        # any integer dtype, list or tuple scores the same split
        split = sched.objective(states, (2, 1, 1))
        assert sched.objective(states, np.array([2, 1, 1], dtype=np.int32)) == split


def reference_greedy(sched, states):
    """The slot-by-slot greedy on one frame, from scalar quadrature calls.

    L rounds; each round gives one slot to the user whose next increment is
    largest, ties to the lowest user index.
    """
    n, slots = sched.n_users, sched.n_slots
    increments = [
        np.diff([
            bin_expected_utility(
                sched.utilities.for_user(i), v / slots, states[i],
                sched.quantizer.for_user(i), sched.link,
            )
            for v in range(slots + 1)
        ])
        for i in range(n)
    ]
    counts = np.zeros(n, dtype=int)
    for _ in range(slots):
        gains = [float(increments[i][counts[i]]) for i in range(n)]
        counts[int(np.argmax(gains))] += 1
    return counts


class TestBlockPick:
    def test_batch_equals_slot_by_slot_greedy(self):
        rng = np.random.default_rng(41)
        cases = [(1, 4, 2), (3, 1, 2), (4, 6, 0), (1, 1, 0)] + [
            (int(rng.integers(1, 9)), int(rng.integers(1, 30)), int(rng.integers(0, 4)))
            for _ in range(36)
        ]
        for n, slots, bits in cases:
            # draw means and concavities from short lists, so equal users tie
            means = rng.choice([0.5, 2.0, 7.0], size=n)
            concavities = rng.choice([0.1, 1.0, 4.0], size=n)
            sched = make_scheduler(means, concavities, bits, slots)
            states = rng.integers(1, 2**bits + 1, size=(int(rng.integers(1, 21)), n))
            counts = sched.greedy_allocate(states)
            assert counts.shape == states.shape
            for t, frame in enumerate(states):
                expected = reference_greedy(sched, frame)
                assert np.array_equal(counts[t], expected), (n, slots, bits, t)
                assert np.array_equal(sched.greedy_allocate(frame), expected)

    def test_equal_users_tie_to_the_lower_index(self):
        sched = make_scheduler([2.0, 2.0, 2.0], 0.1, bits=1, slots=4)
        states = np.array([[2, 2, 2], [1, 1, 1], [1, 2, 2]])
        assert sched.greedy_allocate(states).tolist() == [
            reference_greedy(sched, s).tolist() for s in states
        ] == [[2, 1, 1], [2, 1, 1], [0, 2, 2]]

    def test_one_quadrature_call_per_user_and_state(self, monkeypatch):
        calls = []
        real = quantized_module.bin_expected_utility

        def counting(*args, **kwargs):
            calls.extend(np.atleast_1d(args[2]).tolist())  # one state, or one user's states
            return real(*args, **kwargs)

        monkeypatch.setattr(quantized_module, "bin_expected_utility", counting)
        sched = make_scheduler([1.0, 2.0], 0.1, bits=2, slots=5)
        sched.greedy_allocate([[1, 4], [1, 3], [1, 4]])
        assert sorted(calls) == [1, 3, 4]


class TestArrayShares:
    def test_array_equals_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            bits = int(rng.integers(0, 4))
            mean = float(rng.uniform(0.3, 20.0))
            q = Quantizer(mean, bits)
            u = LogUtility(float(rng.uniform(0.05, 5.0)))
            state = int(rng.integers(1, 2**bits + 1))
            shares = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=6)]).reshape(2, 4)
            values = bin_expected_utility(u, shares, state, q, LINK)
            assert values.shape == (2, 4)
            for index, share in np.ndenumerate(shares):
                scalar = bin_expected_utility(u, float(share), state, q, LINK)
                assert isinstance(scalar, float)
                assert values[index] == scalar
            assert values[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan])
    def test_one_bad_entry_raises(self, bad):
        q = Quantizer(1.0, 1)
        with pytest.raises(ValueError):
            bin_expected_utility(LogUtility(0.1), np.array([0.0, 0.5, bad]), 1, q, LINK)

    def test_one_bad_state_raises(self):
        q = Quantizer(1.0, 1)
        for bad in [0, 3]:
            with pytest.raises(ValueError, match=r"state must lie in 1\.\.2"):
                bin_expected_utility(LogUtility(0.1), 0.5, np.array([1, bad, 2]), q, LINK)


class TestBatchStates:
    def test_bad_state_names_its_frame_and_user(self):
        sched = make_scheduler([1.0, 1.0], 0.1, bits=1, slots=2)
        states = np.ones((5, 2), dtype=int)
        states[3, 1] = 3
        with pytest.raises(ValueError, match="frame 3, user 1"):
            sched.greedy_allocate(states)
        states[3, 1] = 0
        with pytest.raises(ValueError, match="frame 3, user 1"):
            sched.greedy_allocate(states)

    def test_shapes_checked(self):
        sched = make_scheduler([1.0, 1.0], 0.1, bits=1, slots=2)
        with pytest.raises(ValueError):
            sched.greedy_allocate(np.ones((4, 3), dtype=int))
        with pytest.raises(ValueError):
            sched.greedy_allocate(np.ones((2, 2, 2), dtype=int))
        with pytest.raises(ValueError):
            sched.objective(np.ones((2, 2), dtype=int), [1, 1])
