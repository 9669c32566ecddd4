"""Drift-adjusted timing against a fixed reference loop sampled every 0.1 s.

The vCPU this benchmark was written on changes speed within a single run:
the reference loop below reads about 0.6 ms for a second or two, then about
1.0 ms, and back, as other tenants load the host.  Raw seconds therefore do
not repeat.  While a DriftClock is armed, a SIGALRM timer probes the
reference loop every PROBE_EVERY_S, also in the middle of an operation, so
that a 2-second operation is sampled about twenty times rather than only at
its ends.  An operation's raw time excludes the probes that ran inside it,
and its adjusted time is

    raw time x mean(NOMINAL_REF_S / probe) over the probes taken during it
                                           or within WINDOW_S of it.

Adjusted seconds are what the work would have taken on a machine whose
probe reads NOMINAL_REF_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from collections import namedtuple
from time import perf_counter

# Fixed once, from the first baseline probes (0.66-1.12 ms on a 2-vCPU host
# with Python 3.11.7).  It only sets the scale of adjusted seconds: changing
# it would rescale every adjusted time, and so every result, by one factor.
NOMINAL_REF_S = 0.0008

PROBE_EVERY_S = 0.1
# A probe counts for an operation when it runs within this much of it, so
# that even a 4 ms operation is adjusted by the probes on both sides of it.
WINDOW_S = 0.15

_PROBE_REPS = 5


_Cell = namedtuple("_Cell", "row col")


def ref_loop() -> int:
    """Fixed pure-Python work in three styles, because the host's slow
    phases slow each style by a different factor (integer arithmetic by
    about 1.35x, dict and tuple work by 1.7x; the workloads lie between).
    Their sum tracks all three workloads better than any one style."""
    acc = 0
    seen: dict[int, int] = {}
    for i in range(300):
        pair = (i % 13, i % 7)
        seen[pair[0] - pair[1]] = seen.get(pair[0] - pair[1], 0) + 1
        acc += sum(x for x in pair if x) + min(pair) + len(seen)
    for i in range(25):
        cells = [_Cell(r, (i + r * 3) % 11 + 1) for r in range(1, 6)]
        by_res: dict[int, set] = {}
        for c in cells:
            by_res.setdefault((c.col - c.row) % 5, set()).add(c)
        kept = frozenset(c for c in cells if c.col > 2)
        acc += len(kept) + max(cells, key=lambda c: (c.row, c.col)).col + len(by_res)
    for i in range(4000):
        acc = (acc * 31 + i) % 1000003
    return acc


def probe() -> float:
    """Median raw time of a few reference loops, robust to one preemption."""
    times = []
    for _ in range(_PROBE_REPS):
        t0 = perf_counter()
        ref_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class DriftClock:
    """Context manager that samples the reference loop while armed.

    `refs` keeps every probe and `intervals` the wall-clock interval each
    one occupied.  `on_probe`, when set, is called with each interval (the
    tracer uses it to take probe time out of the spans it lands in).
    """

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.on_probe = None
        self._busy = False
        self._previous = None

    def __enter__(self) -> "DriftClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        try:
            t0 = perf_counter()
            value = probe()
            t1 = perf_counter()
            self.refs.append(value)
            self.intervals.append((t0, t1))
            if self.on_probe is not None:
                self.on_probe(t0, t1)
        finally:
            self._busy = False

    def time(self, fn):
        """Run fn(); return (result, raw seconds without probes, start, end)."""
        first = len(self.intervals) - 1
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        probed = sum(
            max(0.0, min(b, t1) - max(a, t0)) for a, b in self.intervals[first:]
        )
        return result, t1 - t0 - probed, t0, t1

    def factor(self, t0: float, t1: float) -> float:
        """Mean NOMINAL_REF_S / probe over the probes within WINDOW_S of
        [t0, t1], or the last probe before t0 if none is that close."""
        lo = bisect.bisect_left(self.intervals, (t0 - WINDOW_S,))
        hi = bisect.bisect_right(self.intervals, (t1 + WINDOW_S,))
        refs = self.refs[lo:hi] or [self.refs[max(lo - 1, 0)]]
        return statistics.fmean(NOMINAL_REF_S / r for r in refs)

    def ref_ms(self) -> float:
        return statistics.median(self.refs) * 1e3
