"""Wall times scaled to a reference CPU speed.

The benchmark runs on a few cores of a shared host whose speed changes
with what other tenants run: the same pure-Python loop takes 1.0x or 1.5x
its usual time for seconds to minutes at a stretch, and no statistic of
raw wall time over a run of tens of seconds repeats within a few percent.

So the benchmark times a fixed calibration load, shaped like combcert's
own work (exact fractions, frozensets, dict lookups, bitmask scans over
subsets), every `SAMPLE_EVERY_S` of its loop, outside the timed queries.
A query's wall time is then scaled by `REFERENCE_S` over the median of the
calibration passes nearest to it in time: the result is the query's time
on a CPU that runs one calibration pass in `REFERENCE_S` seconds.  The
load does not use combcert, so a change to the package moves the scaled
time as it moves the wall time at a steady CPU speed.  (A change that
slowed the whole interpreter, say by a busy background thread, would slow
the calibration passes too and partly hide itself; the report keeps the
plain wall times and the median pass for that reason.)
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from time import perf_counter

REFERENCE_S = 0.001  # one calibration pass on the reference CPU
SAMPLE_EVERY_S = 0.1  # loop time between calibration passes
NEAREST = 3  # calibration passes taken on each side of a timed span


def calibration_pass() -> int:
    """A fixed load of roughly a millisecond on an unloaded 2 GHz core."""
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    counts: dict[frozenset, int] = {}
    for i in range(500):
        key = frozenset((i % 17, i % 13, i % 11))
        counts[key] = counts.get(key, 0) + 1
    hits = 0
    for subset in combinations(range(12), 4):
        mask = 0
        for i in subset:
            mask |= 1 << i
        for edge in (3, 5, 6, 9, 12, 17, 24, 33, 66, 130):
            if edge & mask == edge:
                hits += 1
    return total.denominator % 97 + len(counts) + hits


class Clock:
    """Calibration passes taken so far, and the scaling they imply."""

    def __init__(self):
        self.marks: list[float] = []  # midpoint of each pass, ascending
        self.passes: list[float] = []  # duration of each pass
        self._due = 0.0

    def sample(self) -> None:
        start = perf_counter()
        calibration_pass()
        end = perf_counter()
        self.marks.append((start + end) / 2)
        self.passes.append(end - start)
        self._due = end + SAMPLE_EVERY_S

    def sample_if_due(self, now: float) -> None:
        if now >= self._due:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """The span [start, end] in seconds of the reference CPU."""
        at = bisect_left(self.marks, (start + end) / 2)
        nearest = self.passes[max(0, at - NEAREST) : at + NEAREST]
        return (end - start) * REFERENCE_S / statistics.median(nearest)

    def median_pass_s(self) -> float:
        return statistics.median(self.passes)
