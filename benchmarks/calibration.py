"""Machine-speed calibration.

The machine the benchmark was written on shares its cores with other
tenants, and its speed drifts by about +-20% over seconds and minutes; a raw
median moved by 19% between two sets of ten runs of the same code.  The
benchmark therefore times a fixed kernel, which runs no ``qecopt`` code,
between ops, and scales every time it reports by ``REFERENCE_NS`` over the
kernel's median time measured alongside.  A figure then reads as the time
on that machine at the kernel's reference speed.  A change to ``qecopt``
cannot change the kernel, so it moves the scaled figures as it moves the
raw ones; the raw wall-clock figures are printed and kept in the run's raw
output as well.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel time on the development machine (2.1 GHz vCPU, Python 3.11,
# numpy 2.4).  It fixes the scale of the reported times, not their ratios.
REFERENCE_NS = 2_000_000

# Samples are taken between ops once this much time has passed since the
# last one: about 3% of the run goes to calibration.
INTERVAL_S = 0.05

_ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
_SITES = np.arange(1, 20_001, dtype=float)


def kernel() -> float:
    """Interpreter-bound Python (dict and float work, calls) plus small and
    vector numpy work: the kinds of work the workloads' ops do."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(3000):
        table[i % 17] = math.log10(i + 1.5) * 2.0 ** (i % 7)
        total += table[i % 17]
    m = np.eye(2, dtype=complex)
    for _ in range(300):
        m = _ROTATION @ m
    return total + float(np.sum(_SITES ** -0.7)) + float(m[0, 0].real)


def sample_ns() -> int:
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


def scale(samples: list[int]) -> float:
    """Factor that turns raw times into reference-speed times."""
    return REFERENCE_NS / statistics.median(samples)
