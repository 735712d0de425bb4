"""The machine's speed, sampled while the benchmark runs.

The benchmark shares a small virtual machine whose speed drifts: slow
phases of 1.5-1.7x lasting from seconds to minutes, on both cores, in wall
time and CPU time alike.  A slow phase that covers a whole run slows every
sample of it, so no least or median time over the run can remove it.

A Speedometer therefore times a fixed piece of interpreter-bound work, the
probe, every PROBE_EVERY_S seconds of wall time, from a SIGALRM handler that
runs between the bytecodes of the code being timed.  A query's time is
scaled by REFERENCE_PROBE_S over the median probe time around it: what the
query would have taken had the machine run at its reference speed.  The
probe's own time is taken out of the query's time first.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_EVERY_S = 0.02
PROBE_ROUNDS = 3000

# Probe seconds at the reference speed: the fastest the probe ran over
# several minutes on a 2-core x86-64 VM with Python 3.11.  A constant, so
# that runs at any time, and commits, are scaled alike.
REFERENCE_PROBE_S = 0.0004


def probe() -> float:
    """Seconds a fixed piece of interpreter-bound work takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ROUNDS):
        table[i & 63] = acc
        acc = (acc * 31 + table.get((i * 7) & 63, i)) % 1_000_003
    return time.perf_counter() - start


class Speedometer:
    """Probes the machine every PROBE_EVERY_S seconds while started."""

    def __init__(self) -> None:
        self.at: list[float] = []       # when each probe started
        self.took: list[float] = []     # how long each probe took
        self.spent = 0.0                # seconds the handler has run in all

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        took = probe()
        self.at.append(start)
        self.took.append(took)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._on_alarm(signal.SIGALRM, None)  # so there is always a probe to go by
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the median probe time from one probe
        interval before `start` to one after `end`, or at the probe
        nearest to them if none fell there."""
        lo = bisect.bisect_left(self.at, start - PROBE_EVERY_S)
        hi = bisect.bisect_right(self.at, end + PROBE_EVERY_S)
        if lo == hi:
            lo = max(0, min(lo, len(self.at) - 1))
            hi = lo + 1
        return REFERENCE_PROBE_S / statistics.median(self.took[lo:hi])
