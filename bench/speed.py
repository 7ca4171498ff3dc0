"""The machine's momentary speed, read off a fixed reference kernel.

The host this benchmark was defined on is shared with other tenants.  The
same fixed Python loop took 12 to 19 ms in consecutive 2 s windows, and the
median of the kernel below over a run moved by up to a third from one run to
the next, although the process never waited (its CPU time equalled its wall
time, it made the same page faults, and fixing ASLR or PYTHONHASHSEED did
not help).  So a run times this kernel right before every op (every CLI
call, every set-up probe) and once at the end, and reports every time it
measured at the reference speed: the op's raw time, and the spans traced
inside it, multiplied by ``factor()`` of the sample taken before the op,
which is (``REFERENCE_S`` over the mean of the two kernel times around the
op) to the power ``SENSITIVITY``.

The power is below 1 because not all work slows down as much as the kernel
when the host is busy.  Across ten runs per workload, pure-Python moments
slowed about as much as the kernel, while CLI start-up and numpy-bound ops
slowed about half as much.  With 0.75, the interquartile range over those
runs was 2-9 % of the median for every time metric, against 4-16 % raw and
2-11 % at full strength.  One factor for the whole run, from the median
kernel time, removes the drift between runs but not the swings within one;
the README compares it with this per-op factor.  The raw times stay in the
run report.  The kernel is the benchmark's own code, so no change to
romanoff_lab moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# median kernel time on the 2 vCPU Xeon host the benchmark was defined on
REFERENCE_S = 0.028
SENSITIVITY = 0.75


def kernel() -> int:
    """Fixed interpreter-bound work: growing exact rationals, a dict, an int loop."""
    total = 0
    for _ in range(2):
        acc = Fraction(0)
        table = {}
        for n in range(1, 1200):
            acc += Fraction(n, 2 * n + 1)
            table[n] = acc.denominator % 97
        for i in range(60_000):
            total += i * i
        total += len(table)
    return total


class SpeedMeter:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index for ``factor``."""
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Multiplier to the reference speed for the op that ran right after sample ``before``."""
        around = self.samples[before : before + 2]
        return (REFERENCE_S * len(around) / sum(around)) ** SENSITIVITY
