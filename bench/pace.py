"""Host-speed correction for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed swings by up
to about 1.7x, often for minutes at a time, with what else the host runs.  A
run is shorter than such a swing, so runs made at different times disagree by
far more than any change worth catching.  To cancel the swing, the untraced
run interleaves a short fixed probe loop with the replay: one probe just
before each call starts and one just after it ends, and one on each side of
every timed set-up.  The probes sit outside every timed interval.  An
interval's host time is then rescaled to a fixed reference speed:

    reference seconds = host seconds * REFERENCE_S / (median of nearby probes)

The probe is benchmark code and never changes with the program, so a faster
program lowers the rescaled time as much as the host time.  The host times,
unscaled, are printed with every run next to the rescaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

import numpy as np

# probe duration taken as the reference speed: a round figure inside the range
# of a run's median probe (0.34 to 0.61 ms) on the 2-vCPU Intel Xeon host the
# benchmark was defined on
REFERENCE_S = 4.0e-4
# probes on each side of an interval whose median gives the interval's speed
WINDOW = 3

_TABLE = {i: i * 3 for i in range(512)}
_ROWS = np.arange(1024, dtype=float).reshape(16, 64)


def _probe_loop() -> float:
    """Fixed work of the program's kind: dict reads, float arithmetic in the
    interpreter and small numpy reductions."""
    total = 0.0
    for _ in range(6):
        for i in range(512):
            total += _TABLE[i] * 0.5
        for row in _ROWS:
            total += float(row.sum())
    return total


class Pacer:
    """Runs the probes and rescales host intervals by the probes around them."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            _probe_loop()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds of [start, end], an interval that holds no probe."""
        after = bisect.bisect_left(self.starts, end)
        nearby = self.durations[max(0, after - WINDOW):after + WINDOW]
        return (end - start) * REFERENCE_S / statistics.median(nearby)

    def scale_span(self, start: float, end: float) -> float:
        """Reference seconds of [start, end] with the probes inside it left out."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        total, t = 0.0, start
        for i in range(lo, hi):
            total += self.scale(t, self.starts[i])
            t = self.starts[i] + self.durations[i]
        return total + self.scale(t, end)
