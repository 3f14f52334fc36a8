"""``sample_gains`` against the per-frame sampler it replaced.

The library keeps one Philox generator per thread and resets it to the
frame's counter before each draw.  The reference below is the sampler it
ran before: a new ``Philox`` and ``Generator`` for every frame, drawing
``exponential(mean_gains)``.  Every comparison is bit for bit.

The reference passes the counter as the list ``[0, 0, t, 0]``, which numpy
converts through float64 once ``t`` exceeds the int64 range, so it rounds
frame indices from 2**63 up (and maps 2**64 - 1024 and above to counter 0).
Those frames are checked against the counter given as one 256-bit integer,
``t << 128``, which places ``t`` in the third 64-bit word exactly.
"""

import sys
import threading

import numpy as np
import pytest

from utilsched import ChannelModel, sample_gains
from utilsched.simulate import TRAINING_FRAME_OFFSET

SEEDS = [0, 7919, 2**64 + 5, 2**128 - 1]
FRAMES = [*range(2001), *range(TRAINING_FRAME_OFFSET, TRAINING_FRAME_OFFSET + 200), 2**63 - 1]


def reference_gains(model, seed, frame_index):
    """The per-frame sampler: a new generator for every frame."""
    bit_gen = np.random.Philox(key=seed, counter=[0, 0, frame_index, 0])
    rng = np.random.Generator(bit_gen)
    return rng.exponential(model.mean_gains)


def exact_counter_gains(model, seed, frame_index):
    """The per-frame sampler with the counter as one integer, exact for every t < 2**64."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=frame_index << 128))
    return rng.exponential(model.mean_gains)


def model_of(n):
    return ChannelModel(np.linspace(0.25, 4.0, n))


def shared_model_of(n):
    return ChannelModel(np.full(n, 2.5))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("seed", SEEDS)
def test_equals_per_frame_sampler(n, seed):
    for model in [model_of(n), shared_model_of(n)]:
        for t in FRAMES:
            assert np.array_equal(sample_gains(model, seed, t), reference_gains(model, seed, t)), t


@pytest.mark.parametrize(
    ("means", "shared_mean"),
    [
        (np.full(8, 2.5), 2.5),
        (np.linspace(0.25, 4.0, 8), None),
        (np.full(8, 1e-300), 1e-300),
        (np.full(8, 1e300), 1e300),
        (np.array([1e-300, 1e300]), None),
        # one ulp apart: per-user means, drawn at scale 1.0 and multiplied
        (np.array([2.5, np.nextafter(2.5, np.inf)]), None),
    ],
)
def test_shared_mean_is_derived_and_draws_equal_per_frame_sampler(means, shared_mean):
    model = ChannelModel(means)
    assert model.shared_mean == shared_mean
    for seed in SEEDS:
        for t in range(500):
            assert np.array_equal(sample_gains(model, seed, t), reference_gains(model, seed, t)), t


@pytest.mark.parametrize("seed", SEEDS)
def test_top_frame_indices_take_the_exact_counter(seed):
    for model in [model_of(8), shared_model_of(8)]:
        for t in [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1025, 2**64 - 1]:
            expected = exact_counter_gains(model, seed, t)
            assert np.array_equal(sample_gains(model, seed, t), expected), t
            assert np.array_equal(sample_gains(model, seed, np.uint64(t)), expected), t
        # below 2**63 the two references agree
        assert np.array_equal(exact_counter_gains(model, seed, 2**63 - 1), reference_gains(model, seed, 2**63 - 1))


def test_interleaved_seeds_rebuild_the_generator():
    model = model_of(3)
    frames = range(50)
    for seed in [11, 7919, 11, 2**128 - 1, 11]:
        for t in frames:
            assert np.array_equal(sample_gains(model, seed, t), reference_gains(model, seed, t))


def test_frames_interleaved_with_other_models_and_seeds():
    # each call depends on its (seed, frame) alone, whatever ran before it
    small, large = model_of(1), model_of(8)
    for t in range(300):
        for model, seed in [(large, 3), (small, 3), (large, 4), (small, 2**64 + 5)]:
            assert np.array_equal(sample_gains(model, seed, t), reference_gains(model, seed, t))


def test_threads_sampling_different_seeds_equal_serial_results():
    model = model_of(8)
    seeds = [0, 7919, 2**64 + 5, 2**128 - 1]
    frames = range(400)
    serial = {seed: [reference_gains(model, seed, t) for t in frames] for seed in seeds}
    results = {}
    start = threading.Barrier(len(seeds))

    def draw(seed):
        start.wait(timeout=30)
        results[seed] = [sample_gains(model, seed, t) for t in frames]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in seeds:
        assert len(results[seed]) == len(frames)
        for got, expected in zip(results[seed], serial[seed]):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("frame_index", [-1, 2**64, 1.5, np.float64(2.0), "3", None])
def test_bad_frame_index_rejected(frame_index):
    with pytest.raises(ValueError, match="frame_index"):
        sample_gains(model_of(2), 0, frame_index)


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "3", np.float64(3.0), [1, 2], None])
def test_bad_seed_rejected(seed):
    model = model_of(2)
    expected = reference_gains(model, 5, 9)
    sample_gains(model, 5, 9)
    with pytest.raises(ValueError):
        sample_gains(model, seed, 0)
    # the failed rebuild leaves the thread's generator usable
    assert np.array_equal(sample_gains(model, 5, 9), expected)


def test_one_generator_per_seed_change(monkeypatch):
    model = model_of(3)
    sample_gains(model, 5, 0)  # hold a seed other than the ones counted below
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    for t in range(1000):
        sample_gains(model, 424242, t)
    assert built == [424242]
    built.clear()
    seeds = [11, 7919, 11, 2**128 - 1, 11]
    for seed in seeds:
        for t in range(50):
            sample_gains(model, seed, t)
    assert built == seeds
