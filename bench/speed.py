"""Timing at reference speed.

The machine the baseline was taken on is a 2-vCPU container whose cores
other tenants share.  Its speed changed by up to 40% for seconds to
minutes at a time, so a run's wall times moved with the machine more
than with the program.  ``Clock`` runs a fixed pure-Python reference
loop right before and right after every timed step and rescales the
step's wall time by how fast the loop ran then:

    seconds = wall * REFERENCE_SECONDS / mean(loop before, loop after)

That is the step's time on a machine where the loop takes
``REFERENCE_SECONDS``.  The loop does not run any of the program, so a
change to the program moves the rescaled time as much as the wall time.
The loop has a small, cache-resident part and a larger part that
allocates and sorts some megabytes, because the workloads differ in how
much they lean on the memory system.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# the loop's median time on the baseline machine (2 vCPU x86-64, Python 3.11)
REFERENCE_SECONDS = 0.064


def reference_loop() -> int:
    counts: dict[str, int] = {}
    for i in range(40_000):
        key = "k%d" % (i % 2000)
        counts[key] = counts.get(key, 0) + i
    common = frozenset(counts) & frozenset(list(counts)[::2])
    big = {"w%06d" % (i * 7919 % 30_000): i for i in range(30_000)}
    keys = sorted(big)
    shared = frozenset(keys[::3]) & frozenset(keys[::2])
    return len(common) + len(shared) + sum(big[k] for k in keys[::50])


def time_reference() -> float:
    # without the collector, which would also scan whatever the program
    # left on the heap
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times steps at reference speed.  The loop run after one step is
    also the loop run before the next."""

    def __init__(self):
        self.references = [time_reference()]

    def time(self, step):
        """Run ``step()``.  Return its result, its wall seconds and its
        seconds at reference speed."""
        before = self.references[-1]
        t0 = perf_counter()
        output = step()
        wall = perf_counter() - t0
        after = time_reference()
        self.references.append(after)
        return output, wall, wall * 2 * REFERENCE_SECONDS / (before + after)

    def speed(self) -> float:
        """How fast the machine ran during the timed steps, against the
        baseline machine: above 1 is faster."""
        return REFERENCE_SECONDS / statistics.median(self.references)
