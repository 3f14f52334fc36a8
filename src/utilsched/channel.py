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
from dataclasses import dataclass, field

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


@dataclass
class ChannelModel:
    """Per-user mean channel power gains for an N-user fading network."""

    mean_gains: np.ndarray

    def __post_init__(self):
        self.mean_gains = np.atleast_1d(np.asarray(self.mean_gains, dtype=float))
        if self.mean_gains.ndim != 1 or self.mean_gains.size < 1:
            raise ValueError("mean_gains must be a nonempty 1-D vector")
        if not np.all((0 < self.mean_gains) & (self.mean_gains < np.inf)):
            raise ValueError(f"every mean gain must be finite and > 0, got {self.mean_gains}")

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
    """This thread's Philox generator and the state it is reset to per frame."""

    def __init__(self):
        self.seed = self.bit_gen = self.state = self.counter = self.rng = None

    def at_frame(self, seed, frame_index: int):
        if self.rng is None or seed != self.seed:
            bit_gen = np.random.Philox(key=seed)  # ValueError for a bad seed
            # a fresh generator's state: counter 0, empty buffer (buffer_pos 4),
            # no cached 32-bit half (has_uint32 0, uinteger 0); held as Python
            # ints, which the state setter reads about 3x faster than uint64 arrays
            state = bit_gen.state
            self.counter = state["state"]["counter"].tolist()
            state["state"] = {"counter": self.counter, "key": state["state"]["key"].tolist()}
            state["buffer"] = state["buffer"].tolist()
            self.seed, self.bit_gen, self.state = seed, bit_gen, state
            self.rng = np.random.Generator(bit_gen)
        self.counter[2] = frame_index
        self.bit_gen.state = self.state
        return self.rng


_streams = _FrameStream()


def sample_gains(model: ChannelModel, seed: int, frame_index: int) -> np.ndarray:
    """Draw one frame of per-user gains, reproducible from (seed, frame_index).

    The draw is the stream of a Philox generator keyed by ``seed`` from
    counter ``[0, 0, frame_index, 0]``, so each frame owns a disjoint stream
    regardless of how many draws it consumes.  The calling thread's generator
    is reset to that counter, so the result depends only on the two
    arguments: not on earlier calls, nor on other threads.

    Raises
    ------
    ValueError
        If ``seed`` is not a valid Philox key (an integer in 0..2**128 - 1),
        or ``frame_index`` is not an integer in 0..2**64 - 1.
    """
    try:
        t = operator.index(frame_index)
    except TypeError:
        raise ValueError(f"frame_index must be an integer, got {frame_index!r}") from None
    if not 0 <= t < 2**64:
        raise ValueError(f"frame_index must lie in 0..2**64 - 1, got {t}")
    # numpy's exponential(scale) is scale * standard_exponential(), drawn in order
    return _streams.at_frame(seed, t).standard_exponential(model.n_users) * model.mean_gains


# the largest feedback_bits: a quantizer holds 2**bits + 1 thresholds per user
MAX_FEEDBACK_BITS = 16


@dataclass(frozen=True)
class Quantizer:
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
