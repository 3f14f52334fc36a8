"""Gradient scheduling: one user per frame, picked by marginal-utility weight.

The scheduler keeps an exponentially smoothed average rate per user and, each
frame, hands the whole frame to the user maximizing U_i'(R_i) * c_i.  It is
the classic utility-of-average-rate policy and serves as the baseline the
per-frame time-sharing allocator is compared against: it maximizes mean rate
at the cost of large swings in the instantaneous rate.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .utility import LogUtility, as_utility


@dataclass(frozen=True)
class GradientSchedulerState:
    """Smoothed average rates plus the smoothing factor in (0, 1)."""

    avg_rates: np.ndarray
    smoothing: float = 0.01

    def __post_init__(self):
        object.__setattr__(
            self, "avg_rates", np.atleast_1d(np.asarray(self.avg_rates, dtype=float))
        )
        if not 0.0 < self.smoothing < 1.0:
            raise ValueError(f"smoothing must lie in (0, 1), got {self.smoothing}")
        if not np.all((0 <= self.avg_rates) & (self.avg_rates < np.inf)):  # NaN fails too
            raise ValueError(f"average rates must be finite and >= 0, got {self.avg_rates}")


def select_user(state: GradientSchedulerState, peak_rates, utilities) -> int:
    """Index of argmax_i U_i'(R_i) * c_i; ties go to the lowest index."""
    c = np.atleast_1d(np.asarray(peak_rates, dtype=float))
    if c.shape != state.avg_rates.shape or not np.all(c >= 0):  # NaN fails too
        raise ValueError(f"need one peak rate >= 0 per user ({state.avg_rates.size}), got {c}")
    scores = as_utility(utilities, c.size).derivative(state.avg_rates) * c
    return int(np.argmax(scores))


def update_state(
    state: GradientSchedulerState, selected: int, peak_rate: float
) -> GradientSchedulerState:
    """Fold one frame into the averages: the selected user moves toward its
    realized full-frame rate, everyone else decays by (1 - smoothing)."""
    n = state.avg_rates.size
    if not (0 <= selected < n and 0 <= peak_rate < np.inf):
        raise ValueError(f"selected must lie in 0..{n - 1}, peak_rate in [0, inf); got {selected}, {peak_rate}")
    alpha = state.smoothing
    avg = (1.0 - alpha) * state.avg_rates
    avg[selected] += alpha * peak_rate
    return replace(state, avg_rates=avg)


def _schedule_frames(avg_rates, smoothing: float, rates, utilities):
    """Run ``select_user`` then ``update_state`` over the rows of ``rates``.

    Returns the user chosen in each frame and the final average rates.  The
    recursion runs on Python floats: at a few users that costs less than the
    per-call overhead of numpy on short arrays.  The float operations are the
    two public functions', in the same order, and the pick follows
    ``np.argmax`` (the first NaN, else the first maximum), so both results
    match the per-frame loop bit for bit.  A log utility's scores are formed
    in the loop; any other utility's slopes come from one ``derivative`` call
    per frame.
    """
    utility = as_utility(utilities, rates.shape[1])
    if type(utility) is LogUtility:
        concavity = np.broadcast_to(utility.concavity, rates.shape[1]).tolist()
    else:
        concavity = None
    keep = 1.0 - smoothing
    avg = avg_rates.tolist()
    chosen = []
    for c in rates.tolist():
        if concavity is None:
            slopes = utility.derivative(np.array(avg)).tolist()
            scores = [slope * rate for slope, rate in zip(slopes, c)]
        else:
            scores = [1.0 / (a + r) * rate for a, r, rate in zip(concavity, avg, c)]
        k = scores.index(max(scores))
        if math.isnan(sum(scores)):  # a NaN score, which np.argmax picks first, or inf - inf
            k = next((j for j, score in enumerate(scores) if score != score), k)
        avg = [keep * r for r in avg]
        avg[k] += smoothing * c[k]
        chosen.append(k)
    return np.array(chosen, dtype=np.intp), np.array(avg)
