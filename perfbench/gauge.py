"""A machine-speed gauge, and the wall times it scales to a reference speed.

On a shared machine the speed of one pure-Python thread drifts by a third
and more within minutes, as neighbours come and go on the same cores, and
CPU time tracks wall time, so neither clock alone repeats across runs. The
gauge is a fixed pure-Python task that never calls the program. It is read
every ``EVERY_NS`` of a timed phase, between two calls. Each call's wall
time is then scaled by ``REFERENCE_MS`` over the median of the readings
nearest to it in time. Drift slows the gauge and the program alike and
cancels out of the scaled time, while a change to the program moves only
the program's side.

``REFERENCE_MS`` is about the gauge's median time on the machine the
benchmark was tuned on (a shared 2-vCPU Xeon virtual machine at 2.0 GHz),
so scaled times read close to that machine's wall times.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from itertools import permutations
from time import perf_counter_ns

REFERENCE_MS = 1.0
EVERY_NS = 10_000_000
NEAREST = 4  # readings whose median scales one call

_MASKS = tuple((i * 0x9E3779B1) >> 7 & 0x3FF for i in range(10))


def reference_work() -> int:
    """The gauge's task: small-dict building, set membership, bit tests,
    keyed sorting, bisection and generator steps, the operations the
    recognizer's inner loops are made of, on fixed data."""
    total = 0
    for tup in permutations(range(6), 3):
        members = frozenset(tup)
        rank = {}
        for v in range(10):
            if v in members:
                continue
            r = 10
            for i, u in enumerate(tup):
                if _MASKS[u] >> v & 1:
                    r = i
                    break
            rank[v] = r
        order = sorted(rank, key=rank.__getitem__)
        total += bisect_right([rank[v] for v in order], 1)
    return total


def read() -> int:
    """Nanoseconds one run of the gauge's task takes now."""
    t0 = perf_counter_ns()
    reference_work()
    return perf_counter_ns() - t0


def median_ms(runs: int) -> float:
    """Median of ``runs`` readings, in milliseconds."""
    return statistics.median(read() for _ in range(runs)) / 1e6


class Readings:
    """Gauge readings taken during one phase, each with its start time."""

    def __init__(self) -> None:
        self.at: list[int] = []
        self.ns: list[int] = []

    def take_if_due(self, now: int) -> None:
        if not self.at or now - self.at[-1] >= EVERY_NS:
            self.at.append(perf_counter_ns())
            self.ns.append(read())

    def scale(self, at: int, ns: int) -> float:
        """``ns`` measured at ``at``, in milliseconds at reference speed."""
        j = bisect_right(self.at, at)
        near = self.ns[max(0, j - NEAREST // 2) : j + NEAREST // 2]
        return ns * REFERENCE_MS / statistics.median(near)
