"""Block-fading channel model: gain sampling, achievable rate, quantization.

Gains are exponentially distributed channel power gains (Rayleigh amplitude
fading), drawn independently per user and per frame.  Sampling is counter
based: the random stream for frame ``t`` is the Philox stream keyed by
``seed`` from counter ``[0, 0, t, 0]``, so any frame can be regenerated in
isolation and results depend only on ``(seed, t)``, never on evaluation
order or on which thread draws them.  Each thread keeps one Philox generator
and resets it to the frame's counter before each draw; it builds a new one
only when the seed changes.
"""

import copy
import operator
import threading
from dataclasses import dataclass, field, fields

import numpy as np

LN2 = np.log(2.0)


@dataclass(frozen=True)
class LinkBudget:
    """Scalar link parameters: noise power, SNR gap and transmit power.

    The SNR gap (in dB) folds the penalty of practical modulation and coding
    at a target error rate into the Shannon-form rate expression; its linear
    value must be >= 1.
    """

    noise_power: float = 1.0
    snr_gap_db: float = 0.0
    transmit_power: float = 1.0

    def __post_init__(self):
        if not 0 < self.noise_power < np.inf:
            raise ValueError(f"noise_power must be finite and > 0, got {self.noise_power}")
        if not 0 <= self.snr_gap_db < np.inf:
            raise ValueError(f"snr_gap_db must be finite and >= 0, got {self.snr_gap_db}")
        if not 0 <= self.transmit_power < np.inf:
            raise ValueError(f"transmit_power must be finite and >= 0, got {self.transmit_power}")

    @property
    def snr_gap(self) -> float:
        """Linear SNR gap."""
        return 10.0 ** (self.snr_gap_db / 10.0)

    @property
    def effective_noise(self) -> float:
        """Gap-scaled noise power (denominator of the rate expression)."""
        return self.snr_gap * self.noise_power


def achievable_rate(gain, power, link: LinkBudget):
    """Spectral efficiency log2(1 + power * gain / (gap * noise)) in bits/s/Hz.

    ``gain`` and ``power`` (both >= 0) broadcast together; the rate is 0
    wherever either is 0."""
    snr = np.multiply(power, gain) / link.effective_noise
    return np.log1p(snr) / LN2


class _ComparedByValue:
    """Equality and hashing of a frozen dataclass declared with ``eq=False``.

    Compares the fields with ``compare=True``, as the generated methods
    would, but reads an array field by value: its shape and bytes.  The
    arrays are read-only and hold finite positive floats, so equal bytes
    mean equal elements and the hash cannot go stale.
    """

    def _key(self):
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class ChannelModel(_ComparedByValue):
    """Per-user mean channel power gains for an N-user fading network.

    A frozen value: ``mean_gains`` is an owned, read-only copy of the
    vector passed in, and two models with equal means compare and hash
    equal.  ``shared_mean`` is derived from it: the one mean every user
    shares, as a float, or None when the means differ.
    """

    mean_gains: np.ndarray
    shared_mean: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.mean_gains, dtype=float, ndmin=1)
        if m.ndim != 1 or m.size < 1:
            raise ValueError("mean_gains must be a nonempty 1-D vector")
        if not np.all((0 < m) & (m < np.inf)):
            raise ValueError(f"every mean gain must be finite and > 0, got {m}")
        m.flags.writeable = False
        object.__setattr__(self, "mean_gains", m)
        object.__setattr__(self, "shared_mean", float(m[0]) if np.all(m == m[0]) else None)

    @property
    def n_users(self) -> int:
        return self.mean_gains.size

    @classmethod
    def from_snr_db(cls, mean_snr_db, link: LinkBudget) -> "ChannelModel":
        """Build a model whose average SNR p*E[g]/N0 matches ``mean_snr_db``.

        ``mean_snr_db`` may be a scalar (symmetric users require passing a
        vector of repeated values) or a per-user vector.
        """
        with np.errstate(over="ignore"):
            snr = 10.0 ** (np.atleast_1d(np.asarray(mean_snr_db, dtype=float)) / 10.0)
        if not np.all(snr < np.inf):  # NaN fails too
            raise ValueError(f"mean_snr_db must give a finite linear SNR, got {mean_snr_db}")
        if link.transmit_power <= 0:
            raise ValueError("from_snr_db requires transmit_power > 0")
        return cls(snr * link.noise_power / link.transmit_power)


class _FrameStream(threading.local):
    """What one thread keeps between draws, as one tuple read in one lookup.

    ``held`` is ``(seed, bit_gen, state, counter, draw)``: the seed the
    thread last drew from, its Philox generator, the state that generator
    is reset to before each draw (a fresh generator's: counter 0, empty
    buffer), the list inside that state holding the counter, and the
    generator's bound ``exponential``.  Writing the frame index
    into ``counter[2]`` and setting ``state`` places the generator at the
    frame's stream.  ``bind`` builds a new tuple, only when the seed
    differs from the held one; a seed it rejects leaves the old one held.
    """

    held = (None, None, None, None, None)

    def bind(self, seed: int):
        bit_gen = np.random.Philox(key=seed)  # ValueError outside 0..2**128 - 1
        # held as Python ints, which the state setter reads about 3x faster
        # than the uint64 arrays a fresh generator reports
        state = bit_gen.state
        counter = state["state"]["counter"].tolist()
        state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
        state["buffer"] = state["buffer"].tolist()
        self.held = (seed, bit_gen, state, counter, np.random.Generator(bit_gen).exponential)
        return self.held


_streams = _FrameStream()


def _index(value, name: str) -> int:
    """``value`` as a Python int, or ``ValueError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def sample_gains(model: ChannelModel, seed: int, frame_index: int) -> np.ndarray:
    """Draw one frame of per-user gains, reproducible from (seed, frame_index).

    The draw is the stream of a Philox generator keyed by ``seed`` from
    counter ``[0, 0, frame_index, 0]``, so each frame owns a disjoint stream
    regardless of how many draws it consumes.  The calling thread keeps one
    generator, for the seed it last drew from, and resets it to that counter
    before each draw, so the result depends only on the two arguments: not
    on earlier calls, nor on other threads.  A thread builds a new generator
    only when the seed differs from the one it holds.

    numpy's ``exponential(scale, n)`` draws ``scale * standard_exponential()``
    element by element, in stream order.  A model whose users share one
    mean draws its frame in that one call; one with per-user means draws
    at scale 1.0, which leaves each draw exact, and multiplies by the means
    in place.  Both give the same bits for the same means.

    Raises
    ------
    ValueError
        If ``seed`` is not an integer in 0..2**128 - 1 (the Philox key's
        range; a float, a string or None fails too, whatever its value), or
        ``frame_index`` is not an integer in 0..2**64 - 1.
    """
    t = frame_index if type(frame_index) is int else _index(frame_index, "frame_index")
    if not 0 <= t < 2**64:
        raise ValueError(f"frame_index must lie in 0..2**64 - 1, got {t}")
    if type(seed) is not int:
        seed = _index(seed, "seed")
    held_seed, bit_gen, state, counter, draw = _streams.held
    if seed != held_seed:
        _, bit_gen, state, counter, draw = _streams.bind(seed)
    counter[2] = t
    bit_gen.state = state
    mean_gains = model.mean_gains
    shared_mean = model.shared_mean
    if shared_mean is not None:
        return draw(shared_mean, mean_gains.size)
    gains = draw(1.0, mean_gains.size)
    gains *= mean_gains
    return gains


# the largest feedback_bits: a quantizer holds 2**bits + 1 thresholds per user
MAX_FEEDBACK_BITS = 16


@dataclass(frozen=True, eq=False)
class Quantizer(_ComparedByValue):
    """Equal-probability quantizer of exponential gains: 2**feedback_bits bins.

    ``mean_gains`` is one mean shared by every user, or one mean per user.
    ``thresholds`` is ``(n_states + 1,)``, or ``(N, n_states + 1)`` with
    row j user j's: from 0 to +inf, each bin holding probability exactly
    1/n_states (inverse CDF: G_k = -mean * ln(1 - (k-1)/K)).
    """

    mean_gains: object
    feedback_bits: int
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.feedback_bits not in range(MAX_FEEDBACK_BITS + 1):  # a fraction fails too
            raise ValueError(f"feedback_bits must lie in 0..{MAX_FEEDBACK_BITS}, got {self.feedback_bits}")
        m = np.array(self.mean_gains, dtype=float)
        if m.ndim > 1 or not np.all((0 < m) & (m < np.inf)):
            raise ValueError(f"mean_gains must be finite and > 0 (scalar or 1-D), got {self.mean_gains}")
        m.flags.writeable = False
        object.__setattr__(self, "mean_gains", float(m) if m.ndim == 0 else m)
        thresholds = m[..., None] * np.append(-np.log1p(-np.arange(self.n_states) / self.n_states), np.inf)
        thresholds.flags.writeable = False
        object.__setattr__(self, "thresholds", thresholds)

    @property
    def n_states(self) -> int:
        return 2**self.feedback_bits

    def for_user(self, j: int) -> "Quantizer":
        """User j's own quantizer; a quantizer shared by all users returns itself."""
        if np.ndim(self.mean_gains) == 0:
            return self
        user = copy.copy(self)  # row j as it is: deriving it again takes a log per state
        object.__setattr__(user, "mean_gains", float(self.mean_gains[j]))
        object.__setattr__(user, "thresholds", self.thresholds[j])
        return user


def quantize(gain, quantizer: Quantizer):
    """Map gain(s) to 1-based state indices: state k covers [G_k, G_{k+1}).

    Bins are closed on the left, so quantize(G_k) == k.  A per-user
    quantizer maps a block whose last axis holds its N users, such as
    ``(T, N)`` frames, user j's column by row j of the thresholds.
    """
    thresholds = quantizer.thresholds
    if thresholds.ndim == 1:
        state = np.searchsorted(thresholds, gain, side="right")
        return state if np.ndim(gain) else int(state)
    # ValueError unless the last axis holds one gain per user
    columns = zip(thresholds, np.moveaxis(gain, -1, 0), strict=True)
    return np.stack([np.searchsorted(row, g, side="right") for row, g in columns], axis=-1)
