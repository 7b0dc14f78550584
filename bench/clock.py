"""Host speed, sampled by a fixed calibration kernel between timed items.

On a shared host the same code runs up to 1.7 times slower for seconds at
a time, while other tenants load the caches and memory the host's cores
share.  A run of the benchmark therefore calls ``Clock.maybe_tick`` between
its items: at most every ``TICK_EVERY_S`` it times ``kernel``, a fixed
piece of exact rational and tuple arithmetic like the library's own, which
slows down in those spells as the library does.  ``Clock.scale`` turns a
wall-clock interval into nominal seconds: the interval times
``NOMINAL_S`` ÷ the mean kernel time over the ticks within ``WINDOW_S`` of
it.  The kernel is the benchmark's own code, so a change to the library
does not change it.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

NOMINAL_S = 0.0007  # the kernel's time on a quiet core of the reference host
TICK_EVERY_S = 0.02
WINDOW_S = 0.5

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(6)] for i in range(6)]
_PERMS = [tuple((k * m) % 11 + 1 for m in range(11)) for k in range(1, 11)]


def kernel() -> tuple:
    """Exact determinant of a fixed 6x6 rational matrix, and a product of
    permutations of 1..11 in one-line notation."""
    m = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0), ()
        m[c], m[p] = m[p], m[c]
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    w = tuple(range(1, 12))
    seen = set()
    for _ in range(3):
        for u in _PERMS:
            w = tuple(u[i - 1] for i in w)
            seen.add(w)
    return det, w, len(seen)


class Clock:
    """Kernel timings in time order: their midpoints and durations."""

    def __init__(self):
        self.mids: list[float] = []
        self.cumulative = [0.0]  # running sums of the durations
        self.spent = 0.0  # seconds spent in ticks
        self.last = float("-inf")

    def tick(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.cumulative.append(self.cumulative[-1] + end - start)
        self.spent += end - start
        self.last = end

    def maybe_tick(self) -> None:
        if time.perf_counter() - self.last >= TICK_EVERY_S:
            self.tick()

    def scale(self, start: float, end: float) -> float:
        """Nominal seconds per wall-clock second over ``[start, end]``."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if hi == lo:  # no tick that near: the last one before, or the first
            lo = min(max(lo - 1, 0), len(self.mids) - 1)
            hi = lo + 1
        mean = (self.cumulative[hi] - self.cumulative[lo]) / (hi - lo)
        return NOMINAL_S / mean
