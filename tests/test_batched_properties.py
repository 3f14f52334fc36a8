"""Property tests of the row-batched allocator.

Random batches of T frames by N users, with zero, tiny (1e-300) and huge
(1e300) rates, zero weights and all-zero rows: every row lies on the
simplex, meets the KKT conditions and equals the 1-D solve of that row bit
for bit.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from utilsched import LogUtility, allocate_ts  # noqa: E402
from utilsched.utility import as_utility  # noqa: E402

from test_utility import ScaledLog  # noqa: E402

EXTREME_RATES = st.sampled_from([0.0, 1e-300, 1e300])
MODERATE_RATES = st.one_of(st.just(0.0), st.floats(1e-3, 100.0))
CONCAVITY = st.floats(0.05, 10.0)
WEIGHT = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


@st.composite
def batches(draw, rates):
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, 8))
    matrix = np.array(draw(st.lists(st.lists(rates, min_size=n, max_size=n), min_size=t, max_size=t)))
    zero_rows = draw(st.lists(st.booleans(), min_size=t, max_size=t))
    matrix[np.array(zero_rows)] = 0.0
    concavity = np.array(draw(st.lists(CONCAVITY, min_size=n, max_size=n)))
    weights = draw(st.none() | st.lists(WEIGHT, min_size=n, max_size=n).map(np.array))
    return matrix, concavity, weights


def check_rows(rates, utility, weights):
    shares, solve = allocate_ts(rates, utility, weights=weights)
    n = rates.shape[1]
    u = as_utility(utility, n)
    w = np.ones(n) if weights is None else weights
    degenerate = 0
    for t, row in enumerate(rates):
        single, one = allocate_ts(row, utility, weights=weights)
        assert np.array_equal(single, shares[t])
        assert one.multiplier == solve.multiplier[t] and one.iterations == solve.iterations[t]
        assert abs(shares[t].sum() - 1.0) <= 1e-12
        assert np.all(shares[t] >= 0)
        zero_marginals = w * u.marginal_share(row, 0.0)
        if np.all(zero_marginals == 0.0):
            degenerate += 1
            assert np.array_equal(shares[t], np.full(n, 1.0 / n))
            continue
        lam = solve.multiplier[t]
        marginals = w * u.marginal_share(row, shares[t])
        active = shares[t] > 0
        tol = 1e-9 * max(1.0, lam)
        assert np.all(np.abs(marginals[active] - lam) <= tol), (marginals, lam)
        assert np.all(marginals[~active] <= lam + tol)
    assert solve.degenerate == degenerate
    assert np.array_equal(solve.active_set, np.flatnonzero(shares > 0))


@given(batches(st.one_of(EXTREME_RATES, MODERATE_RATES)))
def test_log_family_rows(batch):
    rates, concavity, weights = batch
    check_rows(rates, LogUtility(concavity), weights)


@given(batches(MODERATE_RATES))
def test_generic_bisection_rows(batch):
    rates, concavity, weights = batch
    check_rows(rates, [ScaledLog(a) for a in concavity], weights)
