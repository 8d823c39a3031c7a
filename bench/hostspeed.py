"""Host-speed normalisation of the end-to-end times.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
up to 40% over seconds to minutes: the same pure-Python loop takes 7.7 ms
in one phase and 11.9 ms in another, in CPU time as much as in wall time
(the vCPU runs slower; the process loses no time).  Times taken raw
therefore spread between runs of the same code by more than any useful
regression bound.

`SpeedClock` measures that speed while the benchmark runs: a profiling
timer interrupts the process every `INTERVAL_S` of CPU time, and the
handler times `probe()`, a fixed loop of the same kind of interpreter work
as `lt` (small-int bit loops, tuple-keyed dict memos, short-lived tuples)
that calls nothing of `lt`.  `reference_seconds(start, end)` turns a wall
interval into seconds on the reference host, one on which `probe()` takes
`PROBE_REF_S`: the probes inside the interval are left out, and each part
between them is scaled by `PROBE_REF_S` over the mean probe time around
it.  A change to `lt` moves the wall time, not the probe time.

Measured on a 2-vCPU Xeon guest: five 5 s windows of one quick-mixed
stream had median command times that spread (interquartile range over
median) 0.47 raw and 0.05 scaled; one n = 4 query run 14 times spread
0.093 raw, 0.043 scaled by the median probe time and 0.032 by the mean.
What scaling cannot remove is a change in how `lt` leaves the caches for
the probe; the probe's own allocations are few and the collector is off
while it runs.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05    # CPU seconds between probes
WINDOW_S = 0.25      # probes this close to an interval give its speed
MIN_PROBES = 5       # widen the window until it holds this many
PROBE_REF_S = 1e-3   # probe() on the reference host; 0.75-1.05 ms on a 2.1 GHz Xeon vCPU


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def probe() -> float:
    """Seconds taken by a fixed ~1 ms loop of lt-like interpreter work.
    The collector is off, so that it does not collect `lt`'s objects here."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        memo: dict[tuple[int, int], int] = {}
        acc = 0
        for x in range(1, 111):
            y = (x * 40503) & 0xFFFF
            key = (x, y) if x <= y else (y, x)
            out = memo.get(key)
            if out is None:
                out = 0
                for a in _bits(x):
                    for b in _bits(y):
                        out |= 1 << (a | b)
                memo[key] = out
            acc ^= out
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedClock:
    """Samples the host's speed while it is running (a context manager)."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []     # probe starts, in perf_counter seconds
        self.durations: list[float] = []  # probe seconds
        self._previous = None

    def sample(self) -> None:
        start = perf_counter()
        took = probe()
        self.starts.append(start)
        self.durations.append(took)

    def _on_timer(self, signum, frame) -> None:
        try:
            self.sample()
        except RecursionError:  # the timer fired near the recursion limit: no sample
            pass

    def __enter__(self) -> "SpeedClock":
        for _ in range(MIN_PROBES):
            self.sample()
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        for _ in range(MIN_PROBES):
            self.sample()

    def probe_seconds(self, start: float, end: float) -> float:
        """Mean probe time over [start - WINDOW_S, end + WINDOW_S], widened
        until it holds MIN_PROBES probes, less the slowest and fastest
        tenth.  Not the median: the speed also changes inside a window,
        and the mean follows what a command meets."""
        starts, n = self.starts, len(self.starts)
        lo = bisect.bisect_left(starts, start - WINDOW_S)
        hi = bisect.bisect_right(starts, end + WINDOW_S)
        while hi - lo < min(MIN_PROBES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        found = sorted(self.durations[lo:hi])
        cut = len(found) // 10
        return statistics.fmean(found[cut:len(found) - cut])

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] on the reference host.  The probes
        inside the interval cut it into segments; each segment is scaled by
        the probe time around it, and the probes themselves are left out."""
        total, t = 0.0, start
        for i in range(bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)):
            total += (self.starts[i] - t) * PROBE_REF_S / self.probe_seconds(t, self.starts[i])
            t = self.starts[i] + self.durations[i]
        return total + (end - t) * PROBE_REF_S / self.probe_seconds(t, end)
