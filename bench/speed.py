"""Machine speed, measured next to the ops, so that times share one scale.

The machines this benchmark runs on are shared.  Their speed on the same
single-threaded Python work drifts by up to a factor of two within minutes,
and a slow stretch can last several minutes (measured on a 2-vCPU container
with Python 3.11: one pass of invariant_corpus took 1.32 s in one run and
0.64 s in a run five minutes later).  Measuring longer does not remove a drift that
slow.  So the harness times a fixed reference kernel, which is the
benchmark's own pure-Python code and independent of coarsedim, between
ops.  Each op's time is divided by the kernel's slowdown at that moment:
its time there over NOMINAL_S.  A reported time is thus in seconds at the
speed where the kernel takes NOMINAL_S, and a change to the program moves
it while a change in the machine's speed does not.  The raw times are
reported beside them.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's time on a quiet machine of the kind the benchmark was built
# on; it fixes the unit of every normalized time, so it never changes.
NOMINAL_S = 0.0012
MIN_GAP_S = 0.05      # at most one sample per this much time
WINDOW_S = 0.5        # samples this close to an op set its slowdown

_TABLE = [[(i * 7 + j * 3) % 11 for j in range(32)] for i in range(32)]
_FRACTIONS = [Fraction(i, 3) for i in range(1, 40)]


def kernel() -> int:
    """The same mix the program runs: loops over distance rows with
    comparisons, exact rational arithmetic, frozensets and membership
    tests, and JSON text."""
    hits = 0
    for i in range(32):
        di = _TABLE[i]
        for j in range(32):
            dij, dj = di[j], _TABLE[j]
            for k in range(0, 32, 2):
                if di[k] > dij + dj[k]:
                    hits += 1
    total = Fraction(0)
    for a in _FRACTIONS:
        total += a
        hits += total > 5
    sets = [frozenset(range(i, i + 6)) for i in range(200)]
    seen = set(sets)
    hits += sum(1 for s in sets if s in seen and 3 in s)
    return hits + len(json.loads(json.dumps(_TABLE)))


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (time, slowdown)

    def sample(self, force: bool = False) -> None:
        """Time the kernel (best of three) unless a sample is recent."""
        now = perf_counter()
        if not force and self.samples and now - self.samples[-1][0] < MIN_GAP_S:
            return
        best = None
        for _ in range(3):
            t0 = perf_counter()
            kernel()
            took = perf_counter() - t0
            best = took if best is None else min(best, took)
        self.samples.append((perf_counter(), best / NOMINAL_S))

    def slowdown(self, start: float, end: float) -> float:
        """Median slowdown of the samples near [start, end]; the nearest
        sample when none is near."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if near:
            return statistics.median(near)
        return min(self.samples, key=lambda ts: min(abs(ts[0] - start),
                                                     abs(ts[0] - end)))[1]
