"""Timing normalized to a fixed machine speed.

On a shared host the speed of the CPU this process gets drifts by 30% and
more over tens of seconds, for every kind of work alike.  The benchmark
therefore runs a fixed reference kernel (pure-Python rational and dict
work, no bosonorder code) every quarter second between ops, and scales each
measured interval by NOMINAL_S / (the median kernel time around it).  A
normalized time reads as the time the interval would take on a machine
where the kernel takes exactly NOMINAL_S; raw times are reported beside it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

#: The kernel time that normalized figures are expressed against.
NOMINAL_S = 0.010
#: Kernel loop length: 7 to 11 ms on one core of a shared 2.1 GHz Xeon.
KERNEL_ITERATIONS = 1000
#: Least time between kernel samples, and how far around an interval the
#: samples that normalize it may lie.
SAMPLE_EVERY_S = 0.25
WINDOW_S = 1.0


def reference_kernel() -> int:
    """A fixed amount of exact-arithmetic work shaped like bosonorder's:
    small Fraction products and sums, tuple keys, dict accumulation."""
    table: dict = {}
    for i in range(KERNEL_ITERATIONS):
        a = Fraction(i % 19 - 9, i % 7 + 1)
        b = Fraction(i % 11 + 1, i % 13 + 2)
        c = a * b + a - b
        key = (i % 31, i % 5)
        table[key] = table.get(key, 0) + c.numerator * c.denominator
    return len(table)


class Calibrator:
    """Kernel samples taken during a run, and the normalization they give."""

    def __init__(self):
        self.mids: list = []
        self.kernel_s: list = []
        self._last = float("-inf")

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.mids.append((t0 + t1) / 2)
            self.kernel_s.append(t1 - t0)
            self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def local_kernel_s(self, t0: float, t1: float) -> float:
        """Median kernel time over the samples within WINDOW_S of [t0, t1],
        or over the three samples nearest to it if fewer lie there."""
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        if hi - lo < 3:
            centre = (t0 + t1) / 2
            order = sorted(range(len(self.mids)),
                           key=lambda i: abs(self.mids[i] - centre))
            return statistics.median(self.kernel_s[i] for i in order[:3])
        return statistics.median(self.kernel_s[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns raw seconds in [t0, t1] into normalized ones."""
        return NOMINAL_S / self.local_kernel_s(t0, t1)
