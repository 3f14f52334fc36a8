"""Gradient scheduling: one user per frame, picked by marginal-utility weight.

The scheduler keeps an exponentially smoothed average rate per user and, each
frame, hands the whole frame to the user maximizing U_i'(R_i) * c_i.  It is
the classic utility-of-average-rate policy and serves as the baseline the
per-frame time-sharing allocator is compared against: it maximizes mean rate
at the cost of large swings in the instantaneous rate.
"""

from dataclasses import dataclass, replace

import numpy as np

from .utility import as_utility


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
        if not np.all(self.avg_rates >= 0):  # NaN fails too
            raise ValueError("average rates must be >= 0")


def select_user(state: GradientSchedulerState, peak_rates, utilities) -> int:
    """Index of argmax_i U_i'(R_i) * c_i; ties go to the lowest index."""
    c = np.atleast_1d(np.asarray(peak_rates, dtype=float))
    scores = as_utility(utilities, c.size).derivative(state.avg_rates) * c
    return int(np.argmax(scores))


def update_state(
    state: GradientSchedulerState, selected: int, peak_rate: float
) -> GradientSchedulerState:
    """Fold one frame into the averages: the selected user moves toward its
    realized full-frame rate, everyone else decays by (1 - smoothing)."""
    alpha = state.smoothing
    avg = (1.0 - alpha) * state.avg_rates
    avg[selected] += alpha * peak_rate
    return replace(state, avg_rates=avg)


def _schedule_frames(avg_rates, smoothing: float, rates, utilities):
    """Run ``select_user`` then ``update_state`` over the rows of ``rates``.

    Returns the user chosen in each frame and the final average rates.  The
    utility is resolved and ``smoothing * rates`` formed once per call; the
    float operations are the two public functions', in the same order, so
    both results match the per-frame loop bit for bit.
    """
    derivative = as_utility(utilities, rates.shape[1]).derivative
    keep = 1.0 - smoothing
    steps = smoothing * rates
    avg = avg_rates
    chosen = np.empty(len(rates), dtype=np.intp)
    for i, c in enumerate(rates):
        k = (derivative(avg) * c).argmax()
        avg = keep * avg
        avg[k] += steps[i, k]
        chosen[i] = k
    return chosen, avg
