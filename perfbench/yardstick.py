"""Host-speed calibration: a fixed pure-Python task timed all through a run.

The shared 2-vCPU host this benchmark was tuned on runs the same code up to
about 1.7x slower in some minutes than in others.  Every process slows alike,
on either vCPU, with no steal time and with CPU time tracking wall time, so
the slowdown cannot be timed away: ten one-minute runs of the same code
spread by 20-30% between their quartiles.

So a run also times this task, which uses only the benchmark's own code,
at most ``EVERY_S`` before each timed call, and scales each call's time by
``NOMINAL_S`` over the median task time of the marks within ``WINDOW_S`` of
the call, or within half the call's own time of it, whichever is wider: a
call of many seconds, such as grid's flagship, has no marks inside it.  A calibrated time is the call's time at the host speed at which
the task takes ``NOMINAL_S``.  A change to the library moves calibrated
times exactly as it moves raw ones; only the host's speed is divided out.
Raw times are reported beside the calibrated ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import inputs

NOMINAL_S = 0.01  # about the task's median time on the host the benchmark was tuned on
EVERY_S = 0.25
WINDOW_S = 1.5
_SEEDS = ((0, 0, 1, 1, 2),)  # a Borel closure of 62 generators in 5 variables


def task() -> None:
    rows = inputs.borel_closure(5, _SEEDS)
    if len(rows) != 62 or not inputs.is_stable(rows):
        raise RuntimeError("the calibration task computed a wrong result")


class Marks:
    """Start times and durations of the calibration task within one run."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def take(self) -> None:
        """Time the task twice and keep the faster: the first run after an
        idle wait, as between CLI processes, finds the caches cold."""
        t0 = time.perf_counter()
        times = []
        for _ in range(2):
            t = time.perf_counter()
            task()
            times.append(time.perf_counter() - t)
        self.starts.append(t0)
        self.durations.append(min(times))

    def due(self) -> None:
        """Take a mark unless one started less than EVERY_S ago."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.take()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median task time near the interval [start, end]."""
        pad = max(WINDOW_S, (end - start) / 2)
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_right(self.starts, end + pad)
        if lo == hi:  # no mark that close: the nearest one on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return NOMINAL_S / statistics.median(self.durations[lo:hi])
