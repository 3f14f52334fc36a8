"""Machine-speed probe for timing on a host whose speed drifts.

On a shared virtual machine the CPU speed seen by one process drifts by
10-40% over seconds to minutes, for all code alike, so raw wall times of
identical work differ as much between runs.  ``SpeedProbe`` samples a small
fixed kernel every ``PERIOD_S`` seconds while the ops run (from a SIGALRM
handler, between bytecodes of the main thread), so the samples see the
machine in the same state as the ops.  An op's time at reference speed is
its wall time minus the probe's own time, scaled by ``REFERENCE_S`` over the
median probe time taken during the op.

The kernel mixes what the package's hot paths do: small-array numpy calls,
per-element Python calls into numpy, container building and plain
interpreter arithmetic.  It belongs to the benchmark, not the package, so a
change to the package cannot move it.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01
# probe time at the reference speed; fixes the unit of the scaled times
REFERENCE_S = 200e-6
_VALUES = np.arange(1.0, 9.0)


def _kernel():
    total = 0.0
    for _ in range(3):
        v = _VALUES / 0.1
        order = np.argsort(-v, kind="stable")
        total += float(np.cumsum(v[order])[-1])
        total += sum(float(np.log1p(e)) for e in v)
        total += max({i: e for i, e in enumerate(v.tolist())}.values())
    for i in range(1500):
        total += (i * 7) % 13
    return total


class SpeedProbe:
    """Context manager sampling the probe kernel while a pass runs."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, wall_s: float, since: int) -> float:
        """``wall_s`` of work done since sample ``since``, at reference speed."""
        taken = self.samples[since:]
        if not taken:  # too short to be sampled: report it unscaled
            return wall_s
        return (wall_s - sum(taken)) * REFERENCE_S / statistics.median(taken)
