"""Property tests of the quantizer and the quantized slot allocator.

Quantizer bins are closed on the left at every threshold; the greedy slot
pick is optimal against exhaustive enumeration on every small instance, no
single-slot transfer improves it on larger ones, and it picks the slots a
stable sort of the increments does, ties included; and a
bin-conditional expected utility never falls as the share grows, and is the
same bits whether its states come one at a time or as an array.
"""

from itertools import permutations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from utilsched import (  # noqa: E402
    ExperimentConfig,
    LinkBudget,
    LogUtility,
    QuantizedScheduler,
    Quantizer,
    bin_expected_utility,
    quantize,
    sample_gains,
)
from oracles import exhaustive_allocate  # noqa: E402

MEAN_GAIN = st.floats(1e-3, 1e3)
CONCAVITY = st.floats(0.05, 10.0)
GAP_DB = st.floats(0.0, 10.0)


@given(MEAN_GAIN, st.integers(0, 8))
def test_quantize_closed_on_the_left_at_every_threshold(mean_gain, bits):
    q = Quantizer(mean_gain, bits)
    edges = q.thresholds[:-1]
    k = np.arange(1, edges.size + 1)
    assert [quantize(float(g), q) for g in edges] == k.tolist()
    assert np.array_equal(quantize(edges, q), k)
    below = np.nextafter(edges[1:], 0.0)
    assert np.array_equal(quantize(below, q), k[1:] - 1)


@st.composite
def instances(draw, users=st.integers(1, 4), slot_counts=st.integers(1, 6),
              feedback_bits=st.integers(0, 3)):
    n = draw(users)
    slots = draw(slot_counts)
    bits = draw(feedback_bits)
    means = draw(st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n))
    concavity = draw(st.lists(CONCAVITY, min_size=n, max_size=n))
    states = draw(st.lists(st.integers(1, 2**bits), min_size=n, max_size=n))
    link = LinkBudget(snr_gap_db=draw(GAP_DB))
    scheduler = QuantizedScheduler(LogUtility(np.array(concavity)), Quantizer(means, bits), link, slots)
    return scheduler, np.array(states)


@given(instances())
def test_greedy_matches_exhaustive_objective(instance):
    scheduler, states = instance
    greedy = scheduler.greedy_allocate(states)
    assert greedy.sum() == scheduler.n_slots and np.all(greedy >= 0)
    best = scheduler.objective(states, exhaustive_allocate(scheduler, states))
    # equal splits sum the same terms; a tie between users may reorder the sum
    assert scheduler.objective(states, greedy) == pytest.approx(best, rel=1e-14, abs=1e-300)


def best_transfer_gain(scheduler, states, counts):
    """The largest relative rise of ``objective`` from moving one slot from
    one user to another.  Each user's term is concave in its slots, so a
    split no such move improves is optimal (Ibaraki and Katoh, *Resource
    Allocation Problems*, 1988)."""
    base = scheduler.objective(states, counts)
    gain = 0.0
    for i, j in permutations(range(scheduler.n_users), 2):
        if counts[i]:
            moved = counts.copy()
            moved[i] -= 1
            moved[j] += 1
            gain = max(gain, scheduler.objective(states, moved) - base)
    return gain / base


@given(instances(st.integers(2, 8), st.integers(1, 64), st.integers(1, 4)))
def test_no_single_slot_transfer_improves_greedy(instance):
    # beyond the enumeration cap: up to 8 users and 64 slots
    scheduler, states = instance
    assert best_transfer_gain(scheduler, states, scheduler.greedy_allocate(states)) <= 1e-14


def test_no_single_slot_transfer_improves_greedy_at_the_benchmark_shape():
    # the benchmark's qtsl point: N=8 at 10 dB, 8 slots, 3 bits, A=0.1; seed 0's first 256 frames
    config = ExperimentConfig(users=8, policy="qtsl", slots=8, feedback_bits=3, concavity=0.1, seed=0)
    model = config.channel()
    quantizer = Quantizer(model.mean_gains, config.feedback_bits)
    scheduler = QuantizedScheduler(config.utilities(), quantizer, config.link(), config.slots)
    states = quantize(np.stack([sample_gains(model, config.seed, t) for t in range(256)]), quantizer)
    counts = scheduler.greedy_allocate(states)
    assert max(best_transfer_gain(scheduler, s, c) for s, c in zip(states, counts)) <= 1e-14


@given(
    CONCAVITY, MEAN_GAIN, GAP_DB, st.integers(0, 4), st.data(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_bin_expected_utility_nondecreasing_in_share(concavity, mean_gain, gap_db, bits, data, shares):
    q = Quantizer(mean_gain, bits)
    state = data.draw(st.integers(1, q.n_states))
    shares = np.sort(np.array(shares + [0.0, 1.0]))
    values = bin_expected_utility(
        LogUtility(concavity), shares, state, q, LinkBudget(snr_gap_db=gap_db)
    )
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= 0.0)


def reference_block_allocate(scheduler, block):
    """The stable-sort pick: each frame's first L increments in the stable
    descending order of the user-major increments (ties to the lower user,
    then the lower slot), from one quadrature call per frame and user."""
    n, slots = scheduler.n_users, scheduler.n_slots
    shares = np.arange(slots + 1) / slots
    increments = np.array([
        [
            np.diff(bin_expected_utility(
                scheduler.utilities.for_user(i), shares, int(state),
                scheduler.quantizer.for_user(i), scheduler.link,
            ))
            for i, state in enumerate(frame)
        ]
        for frame in block
    ])
    flat = increments.reshape(len(block), -1)
    picks = np.argsort(-flat, axis=1, kind="stable")[:, :slots]
    return np.sum(picks[..., None] // slots == np.arange(n), axis=1)


@st.composite
def tied_blocks(draw, shape):
    """A block of frames whose increments tie often: users drawn from two
    means and two concavities, and, in half the blocks, identical users that
    report one state per frame."""
    n = 1 if shape == "one user" else draw(st.integers(2, 5))
    if shape == "one slot":
        slots = 1
    elif shape == "more slots than users":
        slots = draw(st.integers(n + 1, 3 * n))
    else:
        slots = draw(st.integers(1, 8))
    bits = draw(st.integers(0, 3))
    frames = draw(st.integers(1, 12))
    if draw(st.booleans()):
        means, concavity = [2.0] * n, [0.5] * n
        per_frame = draw(st.lists(st.integers(1, 2**bits), min_size=frames, max_size=frames))
        states = np.repeat(np.array(per_frame)[:, None], n, axis=1)
    else:
        means = draw(st.lists(st.sampled_from([0.5, 2.0]), min_size=n, max_size=n))
        concavity = draw(st.lists(st.sampled_from([0.5, 4.0]), min_size=n, max_size=n))
        states = np.array(draw(st.lists(
            st.lists(st.integers(1, 2**bits), min_size=n, max_size=n), min_size=frames, max_size=frames,
        )))
    scheduler = QuantizedScheduler(
        LogUtility(np.array(concavity)), Quantizer(means, bits), LinkBudget(snr_gap_db=8.2), slots
    )
    return scheduler, states


@pytest.mark.parametrize("shape", ["one user", "one slot", "more slots than users", "any"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_partition_pick_equals_stable_sort_pick(shape, data):
    scheduler, states = data.draw(tied_blocks(shape))
    counts = scheduler.greedy_allocate(states)
    assert np.array_equal(counts, reference_block_allocate(scheduler, states))
    assert np.all(counts.sum(axis=1) == scheduler.n_slots)
    for frame, row in zip(states, counts):
        assert np.array_equal(scheduler.greedy_allocate(frame), row)


@given(
    CONCAVITY, MEAN_GAIN, GAP_DB, st.integers(0, 6), st.data(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9),
)
def test_bin_expected_utility_over_states_equals_per_state_calls(concavity, mean_gain, gap_db, bits, data, shares):
    q = Quantizer(mean_gain, bits)
    # the last state's bin is the tail-truncated one
    states = sorted(set(data.draw(st.lists(st.integers(1, q.n_states), max_size=8)) + [q.n_states]))
    utility, link, shares = LogUtility(concavity), LinkBudget(snr_gap_db=gap_db), np.array(shares)
    values = bin_expected_utility(utility, shares, np.array(states), q, link)
    assert values.shape == (len(states), len(shares))
    for state, row in zip(states, values):
        assert row.tobytes() == bin_expected_utility(utility, shares, state, q, link).tobytes()
        for share, value in zip(shares, row):
            assert value == bin_expected_utility(utility, float(share), state, q, link)
