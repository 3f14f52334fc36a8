"""Quantized time sharing from limited channel feedback.

Users report only a quantizer state (one of 2^M bins of their gain), and the
frame is cut into L equal slots, so shares live on {0, 1/L, ..., 1}.  The
scheduler maximizes the sum of bin-conditional expected utilities: each
user's term is E[U(share * rate(g)) | g in its reported bin] under the
truncated exponential gain density.

Each frame's L slots go to its L largest utility increments, picked for a
block of frames by one partition.  Because each user's increments shrink
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
MAX_SLOTS = 1024  # slots per frame: a table row holds n_slots + 1 values


@lru_cache(maxsize=1)
def _gl_rule():
    """The QUAD_NODES-point Gauss-Legendre rule, built on first use, not at import."""
    from numpy.polynomial.legendre import leggauss  # ~5 ms to import: not at CLI start-up

    return leggauss(QUAD_NODES)


def bin_expected_utility(utility, share, state, quantizer: Quantizer, link: LinkBudget):
    """E[U(share * rate(g)) | g in bin ``state``] for exponential gains.

    ``state`` is the 1-based state of ``quantizer``, which has one mean
    gain (``for_user`` gives one user's).  The expectation is taken against
    the exponential density restricted to [G_k, G_{k+1}) and normalized by
    the bin mass; the unbounded last bin is truncated at the
    1 - TAIL_QUANTILE quantile.  Gauss-Legendre quadrature with QUAD_NODES
    nodes is exact to near machine precision on these smooth integrands.
    ``share`` and ``state`` may be arrays: one quadrature pass gives values
    of shape ``state.shape + share.shape``, each equal bit for bit to its
    scalar call.  A share of 0 has value 0.
    """
    share = np.asarray(share, dtype=float)
    state = np.asarray(state)
    mean_gain = quantizer.mean_gains
    if np.ndim(mean_gain):
        raise ValueError(f"need one user's quantizer (for_user), got {np.size(mean_gain)} mean gains")
    if not np.all((share >= 0.0) & (share <= 1.0)):  # NaN fails too
        raise ValueError(f"share must lie in [0, 1], got {share}")
    if not np.all((1 <= state) & (state <= quantizer.n_states)):
        raise ValueError(f"state must lie in 1..{quantizer.n_states}, got {state}")
    # one bin per state, broadcast over the share axes and the nodes
    state = state.reshape(state.shape + (1,) * (share.ndim + 1))
    lower = quantizer.thresholds[state - 1]
    edge = quantizer.thresholds[state]
    upper = np.where(np.isinf(edge), -mean_gain * np.log(TAIL_QUANTILE), edge)
    mass = np.exp(-lower / mean_gain) - np.exp(-edge / mean_gain)
    nodes, weights = _gl_rule()
    g = 0.5 * (nodes + 1.0) * (upper - lower) + lower
    w = weights * 0.5 * (upper - lower)
    density = np.exp(-g / mean_gain) / mean_gain
    rates = achievable_rate(g, link.transmit_power, link)
    # nodes on the last axis: each share's sum runs as in a one-share call
    values = np.sum(w * utility.value(share[..., None] * rates) * density, axis=-1) / mass[..., 0]
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
    one row of values and increments is computed per (user, state) pair on
    first use and reused across frames; an eager table would hold 2^16 rows
    per user at 16 bits.  The users are the quantizer's, one per mean gain.
    """

    utilities: object
    quantizer: Quantizer
    link: LinkBudget
    n_slots: int

    def __post_init__(self):
        self.utilities = as_utility(self.utilities, self.n_users)
        if self.n_slots not in range(1, MAX_SLOTS + 1):  # a fraction fails too
            raise ValueError(f"n_slots must lie in 1..{MAX_SLOTS}, got {self.n_slots}")
        self._table = {}

    @property
    def n_users(self) -> int:
        return np.size(self.quantizer.mean_gains)

    def share_utilities(self, user: int, state: int) -> np.ndarray:
        """Expected utilities of user at shares 0, 1/L, ..., 1 given its state."""
        key = state * self.n_users + user
        if key not in self._table:
            self._fill(user, [state])
        return self._table[key][0]

    def increments(self, user: int, state: int) -> np.ndarray:
        """Per-slot utility increments d(v) = value(v/L) - value((v-1)/L)."""
        self.share_utilities(user, state)
        return self._table[state * self.n_users + user][1]

    def _fill(self, user: int, states):
        """Cache ``user``'s rows at ``states`` from one quadrature pass."""
        values = bin_expected_utility(
            self.utilities.for_user(user), np.arange(self.n_slots + 1) / self.n_slots, states,
            self.quantizer.for_user(user), self.link,
        )
        keys = (np.asarray(states) * self.n_users + user).tolist()
        self._table.update(zip(keys, zip(values, np.diff(values))))

    def greedy_allocate(self, states) -> np.ndarray:
        """Slot counts of each frame's L largest increments, shape of ``states``.

        ``states`` is one frame (N,) or a block (T, N).  Each frame takes every
        increment above its L-th largest, then those equal to it in user, then
        slot order: the first L of a stable sort by value.  As long as each
        user's increments do not increase (strict concavity), these are the
        slot-by-slot greedy's picks, ties to the lower user.
        """
        states = self._check_states(states, max_ndim=2)
        n, slots = self.n_users, self.n_slots
        block = states.reshape(-1, n)
        keys, rows = np.unique(block * n + np.arange(n), return_inverse=True)
        keys = keys.tolist()
        missing = [k for k in keys if k not in self._table]
        for user in sorted({k % n for k in missing}):  # np.unique here would import numpy.ma
            self._fill(user, [k // n for k in missing if k % n == user])
        table = np.stack([self._table[k][1] for k in keys])
        flat = table[rows.reshape(-1)].reshape(len(block), n * slots)  # user-major
        kth = np.partition(flat, -slots, axis=1)[:, [-slots]]
        above = flat > kth
        tied = flat == kth
        take = above | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= slots - above.sum(axis=1, keepdims=True)))
        return take.reshape(len(block), n, slots).sum(axis=2).reshape(states.shape)

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
        bad = np.argwhere((states < 1) | (states > self.quantizer.n_states))
        if bad.size:
            *frame, user = bad[0]
            where = f"frame {frame[0]}, user {user}" if frame else f"user {user}"
            raise ValueError(f"state {states[tuple(bad[0])]} out of range for {where}")
        return states
