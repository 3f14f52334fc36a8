"""Quantized time sharing from limited channel feedback.

Users report only a quantizer state (one of 2^M bins of their gain), and the
frame is cut into L equal slots, so shares live on {0, 1/L, ..., 1}.  The
scheduler maximizes the sum of bin-conditional expected utilities: each
user's term is E[U(share * rate(g)) | g in its reported bin] under the
truncated exponential gain density.

Slots are assigned greedily, one at a time, to the user whose expected
utility rises the most.  Because each user's increments shrink strictly as
its share grows (strict concavity), picking the L globally largest
increments is optimal, and the greedy result matches exhaustive enumeration;
the tests certify that equivalence instance by instance.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .channel import LinkBudget, Quantizer, achievable_rate
from .utility import as_utility

__all__ = ["bin_expected_utility", "QuantizedScheduler", "slot_compositions"]

QUAD_NODES = 64
TAIL_QUANTILE = 1e-9


@lru_cache(maxsize=8)
def _gl_rule(n_nodes: int):
    nodes, weights = leggauss(n_nodes)
    return nodes, weights


def bin_expected_utility(
    utility,
    share: float,
    state: int,
    quantizer: Quantizer,
    mean_gain: float,
    link: LinkBudget,
    n_nodes: int = QUAD_NODES,
    tail_quantile: float = TAIL_QUANTILE,
) -> float:
    """E[U(share * rate(g)) | g in bin ``state``] for exponential gains.

    ``state`` is the 1-based quantizer state.  The expectation is taken
    against the exponential density restricted to [G_k, G_{k+1}) and
    normalized by the bin mass; the unbounded last bin is truncated at the
    1 - tail_quantile quantile.  Gauss-Legendre quadrature with ``n_nodes``
    nodes is exact to near machine precision on these smooth integrands.
    """
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"share must lie in [0, 1], got {share}")
    if not 1 <= state <= quantizer.n_states:
        raise ValueError(f"state must lie in 1..{quantizer.n_states}, got {state}")
    if share == 0.0:
        return 0.0
    lower = quantizer.thresholds[state - 1]
    upper = quantizer.thresholds[state]
    if np.isinf(upper):
        upper = -mean_gain * np.log(tail_quantile)
    mass = np.exp(-lower / mean_gain) - np.exp(-quantizer.thresholds[state] / mean_gain)
    nodes, weights = _gl_rule(n_nodes)
    g = 0.5 * (nodes + 1.0) * (upper - lower) + lower
    w = weights * 0.5 * (upper - lower)
    density = np.exp(-g / mean_gain) / mean_gain
    rates = achievable_rate(g, link.transmit_power, link)
    return float(np.sum(w * utility.value(share * rates) * density) / mass)


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
    they are computed once per (user, state) pair on first use and reused
    across frames.
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
        if isinstance(self.quantizers, Quantizer):
            self.quantizers = [self.quantizers] * n
        else:
            self.quantizers = list(self.quantizers)
            if len(self.quantizers) != n:
                raise ValueError(f"expected {n} quantizers, got {len(self.quantizers)}")
        if self.n_slots < 1:
            raise ValueError("need at least one slot")
        self._table = {}
        self._increments = {}

    @property
    def n_users(self) -> int:
        return self.mean_gains.size

    def share_utilities(self, user: int, state: int) -> np.ndarray:
        """Expected utilities of user at shares 0, 1/L, ..., 1 given its state."""
        key = (user, state)
        if key not in self._table:
            values = np.array(
                [
                    bin_expected_utility(
                        self.utilities.for_user(user),
                        v / self.n_slots,
                        state,
                        self.quantizers[user],
                        self.mean_gains[user],
                        self.link,
                    )
                    for v in range(self.n_slots + 1)
                ]
            )
            self._table[key] = values
        return self._table[key]

    def increments(self, user: int, state: int) -> np.ndarray:
        """Per-slot utility increments d(v) = value(v/L) - value((v-1)/L)."""
        key = (user, state)
        if key not in self._increments:
            self._increments[key] = np.diff(self.share_utilities(user, state))
        return self._increments[key]

    def _increment(self, user: int, state: int, slots_held: int) -> float:
        return float(self.increments(user, state)[slots_held])

    def greedy_allocate(self, states) -> np.ndarray:
        """Assign the L slots one at a time to the largest-increment user.

        Runs exactly L rounds of N increment evaluations; ties go to the
        lowest user index.
        """
        states = self._check_states(states)
        counts = np.zeros(self.n_users, dtype=int)
        for _ in range(self.n_slots):
            gains = [
                self._increment(i, states[i], counts[i]) for i in range(self.n_users)
            ]
            best = int(np.argmax(gains))
            counts[best] += 1
        return counts

    def exhaustive_allocate(self, states, max_users: int = 4, max_slots: int = 6) -> np.ndarray:
        """Enumerate every slot split and return the best (ties: first in
        lexicographic order).  Refuses instances above the enumeration cap."""
        states = self._check_states(states)
        if self.n_users > max_users or self.n_slots > max_slots:
            raise ValueError(
                f"instance ({self.n_users} users, {self.n_slots} slots) exceeds "
                f"enumeration cap ({max_users}, {max_slots})"
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

    def _check_states(self, states) -> np.ndarray:
        states = np.atleast_1d(np.asarray(states, dtype=int))
        if states.size != self.n_users:
            raise ValueError(f"expected {self.n_users} states, got {states.size}")
        for i, s in enumerate(states):
            if not 1 <= s <= self.quantizers[i].n_states:
                raise ValueError(f"state {s} out of range for user {i}")
        return states
