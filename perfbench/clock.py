"""Times program calls and rescales them by a machine-speed probe.

On a shared host the same CPU runs this code at visibly different speeds
over spans of seconds (measured on a 2-vCPU KVM guest: oscavg passes and
small numpy and interpreter kernels slowed by 1.5x to 4x in blocks of
several seconds, with no steal time reported and no hardware counters
exposed). A ten-second run can fall entirely in a slow block, so neither
medians nor minima of raw times repeat from run to run.

`Clock` therefore runs a fixed probe kernel on the same CPU at least every
PROBE_GAP_S between timed calls. The kernel is half interpreter loop, half
streaming through two 8 MB arrays: of the kernels tried, that mix tracked
the slow-downs of the workloads best (fully for mc_long and checks; mc_short
and circuit_wave still slow about 1.4x as much, in log terms, as the
probe). It runs no oscavg code, so no
change to the program moves it. Each timed interval is rescaled by
REF_S / (mean duration of the probes just before and just after it): the
result is the interval's duration in reference seconds, i.e. what it would
take when the probe takes REF_S. Raw times are kept alongside.
"""

from __future__ import annotations

import bisect
import contextlib
from time import perf_counter

import numpy as np

REF_S = 0.006          # probe duration on the reference host in its fast state
INTERP_LOOP = 90_000
STREAM_PASSES = 4
PROBE_GAP_S = 0.25
PROBE_REPEATS = 3


class Clock:
    def __init__(self):
        self._src = np.ones(1 << 20)
        self._dst = np.empty_like(self._src)
        self.probe_ends: list[float] = []
        self.probe_starts: list[float] = []
        self.probe_s: list[float] = []

    def _kernel(self):
        total = 0
        for i in range(INTERP_LOOP):
            total += i
        for _ in range(STREAM_PASSES):
            np.add(self._src, 1.0, out=self._dst)
        return total

    def probe(self):
        """Run the probe kernel; record its best-of-N duration."""
        start = perf_counter()
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        self.probe_starts.append(start)
        self.probe_ends.append(perf_counter())
        self.probe_s.append(best)

    def _maybe_probe(self):
        if not self.probe_ends or perf_counter() - self.probe_ends[-1] >= PROBE_GAP_S:
            self.probe()

    @contextlib.contextmanager
    def timing(self, intervals: list):
        """Time the body; append its (start, end) to `intervals`. Probes run
        outside the interval."""
        self._maybe_probe()
        t0 = perf_counter()
        try:
            yield
        finally:
            intervals.append((t0, perf_counter()))
            self._maybe_probe()

    def scaled(self, interval) -> float:
        """Duration of a finished interval in reference seconds."""
        t0, t1 = interval
        before = bisect.bisect_right(self.probe_ends, t0) - 1
        after = bisect.bisect_left(self.probe_starts, t1)
        speed = [self.probe_s[i] for i in (before, after) if 0 <= i < len(self.probe_s)]
        return (t1 - t0) * REF_S / (sum(speed) / len(speed))
