"""Quantized time sharing from limited channel feedback.

Users report only a quantizer state (one of 2^M bins of their gain), and the
frame is cut into L equal slots, so shares live on {0, 1/L, ..., 1}.  The
scheduler maximizes the sum of bin-conditional expected utilities: each
user's term is E[U(share * rate(g)) | g in its reported bin] under the
truncated exponential gain density.

Each frame's L slots go to its L largest utility increments, picked for a
block of frames in one stable sort.  Because each user's increments shrink
strictly as its share grows (strict concavity), these are the slots the
slot-by-slot greedy takes, and by marginal analysis the split is optimal;
the tests certify it against exhaustive enumeration instance by instance.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import LinkBudget, Quantizer, achievable_rate
from .utility import as_utility

QUAD_NODES = 64
TAIL_QUANTILE = 1e-9
EXHAUSTIVE_MAX_USERS = 4
EXHAUSTIVE_MAX_SLOTS = 6


@lru_cache(maxsize=1)
def _gl_rule():
    """The QUAD_NODES-point Gauss-Legendre rule, built on first use, not at import."""
    from numpy.polynomial.legendre import leggauss  # ~5 ms to import: not at CLI start-up

    return leggauss(QUAD_NODES)


def bin_expected_utility(
    utility,
    share,
    state: int,
    quantizer: Quantizer,
    mean_gain: float,
    link: LinkBudget,
):
    """E[U(share * rate(g)) | g in bin ``state``] for exponential gains.

    ``state`` is the 1-based quantizer state.  The expectation is taken
    against the exponential density restricted to [G_k, G_{k+1}) and
    normalized by the bin mass; the unbounded last bin is truncated at the
    1 - TAIL_QUANTILE quantile.  Gauss-Legendre quadrature with QUAD_NODES
    nodes is exact to near machine precision on these smooth integrands.
    ``share`` may be an array: one quadrature pass gives every entry's
    value, equal bit for bit to its float call.  A share of 0 has value 0.
    """
    share = np.asarray(share, dtype=float)
    if not np.all((share >= 0.0) & (share <= 1.0)):  # NaN fails too
        raise ValueError(f"share must lie in [0, 1], got {share}")
    if not 1 <= state <= quantizer.n_states:
        raise ValueError(f"state must lie in 1..{quantizer.n_states}, got {state}")
    lower = quantizer.thresholds[state - 1]
    upper = quantizer.thresholds[state]
    if np.isinf(upper):
        upper = -mean_gain * np.log(TAIL_QUANTILE)
    mass = np.exp(-lower / mean_gain) - np.exp(-quantizer.thresholds[state] / mean_gain)
    nodes, weights = _gl_rule()
    g = 0.5 * (nodes + 1.0) * (upper - lower) + lower
    w = weights * 0.5 * (upper - lower)
    density = np.exp(-g / mean_gain) / mean_gain
    rates = achievable_rate(g, link.transmit_power, link)
    # nodes on the last axis: each share's sum runs as in a one-share call
    values = np.sum(w * utility.value(share[..., None] * rates) * density, axis=-1) / mass
    values = np.where(share == 0.0, 0.0, values)
    return float(values) if values.ndim == 0 else values


def slot_compositions(n_slots: int, n_users: int):
    """Yield every way to split ``n_slots`` among ``n_users``, lexicographically."""
    if n_users == 1:
        yield (n_slots,)
        return
    for first in range(n_slots + 1):
        for rest in slot_compositions(n_slots - first, n_users - 1):
            yield (first,) + rest


@dataclass
class QuantizedScheduler:
    """Slot allocator over quantized channel states with a cached value table.

    Expected utilities depend only on (user, reported state, slot count), so
    one row is computed per (user, state) pair on first use and reused
    across frames; an eager table would hold 2^16 rows per user at 16 bits.
    """

    utilities: object
    quantizers: object
    mean_gains: np.ndarray
    link: LinkBudget
    n_slots: int

    def __post_init__(self):
        self.mean_gains = np.atleast_1d(np.asarray(self.mean_gains, dtype=float))
        n = self.mean_gains.size
        self.utilities = as_utility(self.utilities, n)
        self.quantizers = list(self.quantizers)
        if len(self.quantizers) != n:
            raise ValueError(f"expected {n} quantizers, got {len(self.quantizers)}")
        if self.n_slots < 1:
            raise ValueError("need at least one slot")
        self._table = {}

    @property
    def n_users(self) -> int:
        return self.mean_gains.size

    def share_utilities(self, user: int, state: int) -> np.ndarray:
        """Expected utilities of user at shares 0, 1/L, ..., 1 given its state."""
        key = (user, state)
        if key not in self._table:
            self._table[key] = bin_expected_utility(
                self.utilities.for_user(user),
                np.arange(self.n_slots + 1) / self.n_slots,
                state,
                self.quantizers[user],
                self.mean_gains[user],
                self.link,
            )
        return self._table[key]

    def increments(self, user: int, state: int) -> np.ndarray:
        """Per-slot utility increments d(v) = value(v/L) - value((v-1)/L)."""
        return np.diff(self.share_utilities(user, state))

    def greedy_allocate(self, states) -> np.ndarray:
        """Slot counts of each frame's L largest increments, shape of ``states``.

        ``states`` is one frame (N,) or a block (T, N).  A stable sort of the
        user-major increments orders them by value, then user, then slot; as
        long as each user's increments do not increase (strict concavity),
        its first L are the slot-by-slot greedy's picks, ties to lower users.
        """
        states = self._check_states(states, max_ndim=2)
        block = states.reshape(-1, self.n_users)
        increments = np.empty(block.shape + (self.n_slots,))
        for user in range(self.n_users):
            distinct, rows = np.unique(block[:, user], return_inverse=True)
            increments[:, user] = np.stack([self.increments(user, s) for s in distinct])[rows]
        flat = increments.reshape(len(block), -1)  # user-major
        picks = np.argsort(-flat, axis=1, kind="stable")[:, : self.n_slots]
        counts = np.sum(picks[..., None] // self.n_slots == np.arange(self.n_users), axis=1)
        return counts.reshape(states.shape)

    def exhaustive_allocate(self, states) -> np.ndarray:
        """Enumerate every slot split and return the best (ties: first in
        lexicographic order).  Refuses instances above the enumeration cap."""
        states = self._check_states(states)
        if self.n_users > EXHAUSTIVE_MAX_USERS or self.n_slots > EXHAUSTIVE_MAX_SLOTS:
            raise ValueError(
                f"instance ({self.n_users} users, {self.n_slots} slots) exceeds "
                f"enumeration cap ({EXHAUSTIVE_MAX_USERS}, {EXHAUSTIVE_MAX_SLOTS})"
            )
        best_counts = None
        best_value = -np.inf
        for counts in slot_compositions(self.n_slots, self.n_users):
            value = self.objective(states, counts)
            if value > best_value:
                best_value = value
                best_counts = counts
        return np.array(best_counts, dtype=int)

    def objective(self, states, counts) -> float:
        """Sum of bin-conditional expected utilities for a slot split."""
        states = self._check_states(states)
        return float(
            sum(
                self.share_utilities(i, states[i])[counts[i]]
                for i in range(self.n_users)
            )
        )

    def shares(self, counts) -> np.ndarray:
        return np.asarray(counts, dtype=float) / self.n_slots

    def _check_states(self, states, max_ndim: int = 1) -> np.ndarray:
        """States as ints: one frame (N,), or a block (T, N) if ``max_ndim`` is 2."""
        states = np.atleast_1d(np.asarray(states, dtype=int))
        if states.ndim > max_ndim or states.shape[-1] != self.n_users:
            raise ValueError(f"expected {self.n_users} states per frame, got shape {states.shape}")
        bad = np.argwhere((states < 1) | (states > [q.n_states for q in self.quantizers]))
        if bad.size:
            *frame, user = bad[0]
            where = f"frame {frame[0]}, user {user}" if frame else f"user {user}"
            raise ValueError(f"state {states[tuple(bad[0])]} out of range for {where}")
        return states
