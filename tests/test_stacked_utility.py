"""One array-valued LogUtility against the equivalent per-user sequences.

Every allocator accepts either form; stacked concavities broadcast over the
user axis with the same elementwise arithmetic, so results are bit-equal.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from utilsched import (
    ChannelModel,
    GradientSchedulerState,
    LinkBudget,
    LogUtility,
    Quantizer,
    QuantizedScheduler,
    aggregate_utility,
    allocate_ts,
    apply_policy,
    average_utilities,
    select_user,
    solve_uplink,
)

from test_utility import ScaledLog

LINK = LinkBudget(snr_gap_db=8.2)
CONCAVITIES = (0.1, 1.0, 10.0)


class PlainLog(LogUtility):
    """A LogUtility subclass: sequences of it are applied column by column."""


def stacked_and_list(concavities=CONCAVITIES):
    return LogUtility(np.array(concavities)), [LogUtility(a) for a in concavities]


class TestTimeSharing:
    def test_allocate_ts_equal(self):
        rng = np.random.default_rng(1)
        stacked, listed = stacked_and_list()
        for _ in range(50):
            rates = rng.uniform(0.0, 6.0, size=3)
            weights = rng.uniform(0.1, 1.0, size=3)
            for w in (None, weights):
                s_shares, s_solve = allocate_ts(rates, stacked, weights=w)
                l_shares, l_solve = allocate_ts(rates, listed, weights=w)
                assert np.array_equal(s_shares, l_shares)
                assert s_solve.multiplier == l_solve.multiplier
                assert aggregate_utility(s_shares, rates, stacked, w) == aggregate_utility(
                    l_shares, rates, listed, w
                )

    def test_mixed_types_match_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rates = rng.uniform(0.1, 6.0, size=3)
            a = rng.uniform(0.05, 5.0, size=3)
            closed, _ = allocate_ts(rates, LogUtility(a))
            mixed, _ = allocate_ts(
                rates, [LogUtility(a[0]), ScaledLog(a[1], scale=1.0), LogUtility(a[2])]
            )
            assert_allclose(mixed, closed, atol=1e-9)

    def test_average_utilities_equal(self):
        rng = np.random.default_rng(3)
        rates = rng.exponential(2.0, size=(200, 3))
        weights = np.array([0.5, 0.3, 0.2])
        stacked, listed = stacked_and_list()
        assert np.array_equal(
            average_utilities(rates, stacked, weights), average_utilities(rates, listed, weights)
        )


class TestSchedulers:
    def test_select_user_equal(self):
        rng = np.random.default_rng(4)
        stacked, listed = stacked_and_list()
        for _ in range(100):
            state = GradientSchedulerState(rng.uniform(0.0, 3.0, size=3), smoothing=0.1)
            rates = rng.uniform(0.0, 6.0, size=3)
            assert select_user(state, rates, stacked) == select_user(state, rates, listed)

    def test_greedy_allocate_equal(self):
        rng = np.random.default_rng(5)
        means = np.array([0.5, 2.0, 8.0])
        quantizer = Quantizer(means, 2)
        stacked, listed = stacked_and_list()
        a = QuantizedScheduler(stacked, quantizer, LINK, 5)
        b = QuantizedScheduler(listed, quantizer, LINK, 5)
        for _ in range(30):
            states = rng.integers(1, 5, size=3)
            assert np.array_equal(a.greedy_allocate(states), b.greedy_allocate(states))


class TestPowerControl:
    def test_uplink_and_apply_policy_equal(self):
        # heterogeneous concavities at N=3 take the general share update; the
        # per-user LogUtility sequence stacks into the same array-valued
        # utility and gives the same bits.  PlainLog columns are generic
        # utilities, solved by bisection, not by the log family's Newton
        # steps: they agree to the bisection's resolution, as allocate_ts's
        # two paths do in test_timeshare.py
        rng = np.random.default_rng(6)
        gains = rng.exponential(1.0, size=(8, 3))
        fresh = rng.exponential(1.0, size=(4, 3))
        budgets = [1.0, 0.5, 2.0]
        results = []
        for utilities in (LogUtility(np.array(CONCAVITIES)),
                          [LogUtility(a) for a in CONCAVITIES],
                          [PlainLog(a) for a in CONCAVITIES]):
            policy, trace = solve_uplink(gains, utilities, budgets, LINK, threshold=1e-3)
            shares, energies = apply_policy(policy, fresh, utilities, LINK, max_rounds=5)
            results.append((policy.shares, policy.energies, policy.multipliers,
                            np.array(trace.objectives), shares, energies))
        stacked, listed, columns = results
        for x, y in zip(stacked, listed):
            assert np.array_equal(x, y)
        for x, y in zip(stacked, columns):
            assert x.shape == y.shape
            assert_allclose(x, y, rtol=1e-12, atol=1e-12)


class TestValidation:
    def test_nonpositive_array_concavity_rejected(self):
        with pytest.raises(ValueError):
            LogUtility([0.1, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allocate_ts([1.0, 2.0, 3.0], LogUtility([0.1, 1.0]))
        with pytest.raises(ValueError):
            allocate_ts([1.0, 2.0, 3.0], [LogUtility(0.1), LogUtility(1.0)])

    def test_scalar_concavity_stays_float_and_hashable(self):
        u = LogUtility(1)
        assert type(u.concavity) is float
        assert u == LogUtility(1.0) and hash(u) == hash(LogUtility(1.0))

    @pytest.mark.parametrize("make", [LogUtility, lambda values: Quantizer(values, 2), ChannelModel])
    def test_per_user_values_compare_and_hash_by_value(self, make):
        a = make([0.1, 0.2])
        assert a == make([0.1, 0.2]) and hash(a) == hash(make([0.1, 0.2]))
        assert len({a, make(np.array([0.1, 0.2]))}) == 1
        for other in ([0.1, 0.3], [0.1, 0.2, 0.3], [0.1], 0.1):
            assert a != make(other)
        assert Quantizer([0.1, 0.2], 2) != Quantizer([0.1, 0.2], 3)
