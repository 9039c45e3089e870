"""The machine's speed while a run measures, from a fixed reference loop.

On a shared VM, such as the reference machine in README.md, the speed
drifts by up to about 25% over tens of seconds and minutes, and facloc's
ops slow down and speed up with it.  So the worker times `reference_loop`, which does not
touch facloc, every `EVERY_S` seconds between ops, and scales each op's
time to the reference speed: the loop's median time on the reference
machine, `REFERENCE_LOOP_S`.  The speed for an op is the median of the
samples taken from one `WINDOW_S` before the window its start falls in
to one after it.

This holds only while facloc leaves nothing running between calls, such
as a thread, that would slow the loop as well.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

EVERY_S = 0.01
WINDOW_S = 1.0
# typical median time of reference_loop() between ops in a run on the
# reference machine (see README.md)
REFERENCE_LOOP_S = 60e-6


def reference_loop() -> float:
    """Fixed pure-Python float arithmetic.  It allocates no objects that
    the garbage collector tracks, so its speed depends on the machine and
    hardly on the state facloc's ops leave behind."""
    x, y = 0.5, 1.25
    for _ in range(400):
        x = x * 1.0001 + y * 0.5
        y = (y + x) % 97.0
    return x + y


class Gauge:
    """Timings of `reference_loop` taken during one run."""

    def __init__(self):
        self.at = array("d")  # perf_counter at each sample
        self.took = array("d")  # seconds the loop took
        self._next = 0.0

    def sample_if_due(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            reference_loop()
            self.at.append(now)
            self.took.append(time.perf_counter() - now)
            self._next = now + EVERY_S

    def median_s(self) -> float:
        return statistics.median(self.took)

    def scales(self, starts) -> array:
        """Per op starting at `starts` (perf_counter, ascending), the factor
        that turns its measured time into time at the reference speed."""
        out = array("d")
        cache: dict[int, float] = {}
        for start in starts:
            second = int(start // WINDOW_S)
            if second not in cache:
                lo = bisect.bisect_left(self.at, (second - 1) * WINDOW_S)
                hi = bisect.bisect_right(self.at, (second + 2) * WINDOW_S)
                cache[second] = REFERENCE_LOOP_S / statistics.median(self.took[lo:hi])
            out.append(cache[second])
        return out
