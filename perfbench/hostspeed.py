"""Scaling of measured times to a reference host speed.

The benchmark runs on shared hosts where the same pure-Python work takes
from its best time to nearly twice that, in episodes that last from
seconds to minutes; CPU time moves with wall time, so it is no escape.
Such swings would swamp any change worth measuring.  So, between ops and
outside the timed region, the benchmark times a fixed piece of
pure-Python work (the probe), and scales each op's wall time by
``REFERENCE_S`` over the median of the two probes before the op and
the two after it; the median keeps one disturbed probe from skewing
the op.  A scaled time reads as the wall time on a host that runs the
probe in ``REFERENCE_S``; the raw wall times are printed beside it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Best probe time seen on an x86-64 host with 2 vCPUs at 2.0 GHz under
# Python 3.11.  Changing it rescales every reported time.
REFERENCE_S = 0.0030
INTERVAL_S = 0.25  # wall time between probes


def _work() -> list:
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + Fraction(i, 7)
    return sorted(table.items())


def probe() -> float:
    """Seconds for the probe's work, best of three."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _work()
        best = min(best, perf_counter() - start)
    return best


class Probes:
    """Probes taken during one pass, and the scale factor of each op."""

    def __init__(self) -> None:
        self.values = [probe()]
        self.taken = perf_counter()
        self.before: list[int] = []  # per op, the index of the last probe before it

    def before_op(self) -> None:
        if perf_counter() - self.taken >= INTERVAL_S:
            self.values.append(probe())
            self.taken = perf_counter()
        self.before.append(len(self.values) - 1)

    def factors(self) -> list[float]:
        """Per op, ``REFERENCE_S`` over the median of the probes around it."""
        self.values += [probe(), probe()]
        return [REFERENCE_S / statistics.median(self.values[max(0, i - 1) : i + 3]) for i in self.before]
