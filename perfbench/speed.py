"""The machine's speed during a run, and times scaled to a reference speed.

The benchmark runs on a few cores of a shared host. The same pure-Python
work there takes anywhere from one to two times its fastest time,
changing within a second and drifting over minutes as other tenants
come and go, so two runs of the same code minutes apart can differ by a
third. Steal time is not the cause (CPU time moves with wall time), and
no statistic over the program's own timings removes it.

A measured run therefore also times a fixed reference loop, pure Python
and part of the benchmark, never of the program: once before and after
every set-up and, during the run, between two encounters whenever
``INTERVAL_NS`` has passed since the last timing. Each reported time is
scaled by ``REFERENCE_NS`` over the loop's local time (the median of the
``NEIGHBOURS`` timings nearest to it), and the loop's own time is taken
out of the run. A change to the program moves the scaled times as it
moves the wall-clock ones; a busy host moves the loop and the program
together. The loop runs right after program code and so also feels the
cache state that code leaves behind; that share of a change is hidden.
The raw wall-clock figures stay in the readable report.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array
from typing import List, Optional, Sequence

clock_ns = time.perf_counter_ns

#: The reference loop's time at the reference speed, about its median on
#: the 2-vCPU Xeon VM the bounds in ``BENCHMARK.json`` were set on, so
#: that scaled times read close to wall-clock times there.
REFERENCE_NS = 300_000

#: Run time between two timings of the reference loop.
INTERVAL_NS = 10_000_000

#: Timings of the loop that one local speed is the median of.
NEIGHBOURS = 7

#: Pieces a run is cut into, at encounter starts, each scaled by the
#: speed in its middle.
PIECES = 100


def reference_loop() -> int:
    """Fixed pure-Python work: build and walk a small dict of lists."""
    table = {}
    for i in range(400):
        table[(i * 7919) % 4099, i & 7] = [i, str(i)]
    total = 0
    for value in table.values():
        total += value[0] + len(value[1])
    return total


class SpeedProbe:
    """Timings of the reference loop over one iteration of a workload."""

    def __init__(self) -> None:
        self.at_ns = array("q")
        self.took_ns = array("q")
        self._due = 0
        self._local: Optional[List[float]] = None

    def tick(self) -> None:
        """Time the loop if ``INTERVAL_NS`` has passed since the last time."""
        if clock_ns() >= self._due:
            self.sample()

    def sample(self) -> None:
        """Time the loop now."""
        started = clock_ns()
        reference_loop()
        ended = clock_ns()
        self.at_ns.append(started)
        self.took_ns.append(ended - started)
        self._due = ended + INTERVAL_NS
        self._local = None

    def local_ns(self, t: int) -> float:
        """The loop's time around ``t``: the median of its nearest timings."""
        if self._local is None:
            took = self.took_ns
            half = NEIGHBOURS // 2
            self._local = [
                statistics.median(took[max(0, i - half):i + half + 1])
                for i in range(len(took))
            ]
        at = self.at_ns
        i = bisect.bisect_left(at, t)
        if i == len(at) or (i > 0 and t - at[i - 1] < at[i] - t):
            i -= 1
        return self._local[i]

    def scale(self, t: int) -> float:
        """Factor from a wall-clock time at ``t`` to the reference speed."""
        return REFERENCE_NS / self.local_ns(t)

    def spent_ns(self, start: int, end: int) -> int:
        """Time the loop itself took within ``[start, end)``."""
        lo = bisect.bisect_left(self.at_ns, start)
        hi = bisect.bisect_left(self.at_ns, end)
        return sum(self.took_ns[lo:hi])

    def scaled_ns(self, start: int, end: int) -> float:
        """``[start, end)`` without the loop's own time, at the reference speed."""
        return (end - start - self.spent_ns(start, end)) * self.scale(
            (start + end) // 2
        )

    def scaled_run_ns(self, start: int, starts: Sequence[int], end: int) -> float:
        """A run from ``start`` to ``end`` at the reference speed.

        The run is cut into ``PIECES`` pieces at the starts of evenly
        spaced encounters (at each one when there are fewer), and each
        piece is scaled by the speed in its middle.
        """
        n = len(starts)
        pieces = min(PIECES, n)
        cuts = [starts[n * k // pieces] for k in range(1, pieces)]
        bounds = [start, *cuts, end]
        return sum(self.scaled_ns(a, b) for a, b in zip(bounds, bounds[1:]))
