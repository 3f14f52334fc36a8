"""Property tests of the quantizer and the quantized slot allocator.

Quantizer bins are closed on the left at every threshold; the greedy slot
pick is optimal against exhaustive enumeration on every small instance; and
a bin-conditional expected utility never falls as the share grows.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from utilsched import (  # noqa: E402
    LinkBudget,
    LogUtility,
    QuantizedScheduler,
    Quantizer,
    bin_expected_utility,
    quantize,
)

MEAN_GAIN = st.floats(1e-3, 1e3)
CONCAVITY = st.floats(0.05, 10.0)
GAP_DB = st.floats(0.0, 10.0)


@given(MEAN_GAIN, st.integers(0, 8))
def test_quantize_closed_on_the_left_at_every_threshold(mean_gain, bits):
    q = Quantizer.equal_probability(mean_gain, bits)
    edges = q.thresholds[:-1]
    k = np.arange(1, edges.size + 1)
    assert [quantize(float(g), q) for g in edges] == k.tolist()
    assert np.array_equal(quantize(edges, q), k)
    below = np.nextafter(edges[1:], 0.0)
    assert np.array_equal(quantize(below, q), k[1:] - 1)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 6))
    bits = draw(st.integers(0, 3))
    means = draw(st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n))
    concavity = draw(st.lists(CONCAVITY, min_size=n, max_size=n))
    states = draw(st.lists(st.integers(1, 2**bits), min_size=n, max_size=n))
    link = LinkBudget(snr_gap_db=draw(GAP_DB))
    quantizers = [Quantizer.equal_probability(m, bits) for m in means]
    scheduler = QuantizedScheduler(LogUtility(np.array(concavity)), quantizers, means, link, slots)
    return scheduler, np.array(states)


@given(instances())
def test_greedy_matches_exhaustive_objective(instance):
    scheduler, states = instance
    greedy = scheduler.greedy_allocate(states)
    assert greedy.sum() == scheduler.n_slots and np.all(greedy >= 0)
    best = scheduler.objective(states, scheduler.exhaustive_allocate(states))
    # equal splits sum the same terms; a tie between users may reorder the sum
    assert scheduler.objective(states, greedy) == pytest.approx(best, rel=1e-14, abs=1e-300)


@given(
    CONCAVITY, MEAN_GAIN, GAP_DB, st.integers(0, 4), st.data(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_bin_expected_utility_nondecreasing_in_share(concavity, mean_gain, gap_db, bits, data, shares):
    q = Quantizer.equal_probability(mean_gain, bits)
    state = data.draw(st.integers(1, q.n_states))
    shares = np.sort(np.array(shares + [0.0, 1.0]))
    values = bin_expected_utility(
        LogUtility(concavity), shares, state, q, mean_gain, LinkBudget(snr_gap_db=gap_db)
    )
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= 0.0)
