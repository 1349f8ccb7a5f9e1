"""Machine-speed calibration for a shared, noisy host.

On the 2-core machine the benchmark was written on, the same pure-Python
loop runs up to 1.6x slower for tens of seconds at a time while other
tenants load the host, so raw wall times of runs made a minute apart
differ by more than any useful regression bound.  The benchmark therefore
times a fixed reference kernel next to every pass and divides each wall
time by the measured slowdown.  The kernel does the kind of work `lscat`
does in its hot loops (tuple building, set symmetric difference, small
ints) and imports nothing from `lscat`, so a change to the program cannot
move it.  Raw wall times are printed next to the calibrated ones.
"""

from __future__ import annotations

import statistics
import time

# Median time of one kernel on a quiet run of the machine above; a
# calibrated time reads as seconds on a machine that takes this long.
REFERENCE_S = 0.0025
# Host contention slows `lscat` less than the kernel: over sets of ten
# 30 s runs of each workload, log wall time moved about 0.7 times as much
# as log kernel time (0.4-0.9 across workloads and sets; see README.md).
SENSITIVITY = 0.7
KERNEL_REPEATS = 5
SMOOTHING = 2  # passes on each side in the rolling median of slowdowns

_A = [tuple((i * j) % 5 for j in range(6)) for i in range(40)]
_B = [tuple((i + j) % 4 for j in range(6)) for i in range(40)]


def _kernel() -> frozenset:
    acc: set = set()
    for a in _A:
        for b in _B:
            p = tuple(x + y for x, y in zip(a, b))
            if sum(p) % 3:
                acc ^= {p}
    return frozenset(acc)


def slowdown() -> float:
    """Current machine slowdown: (median kernel time / REFERENCE_S) ** SENSITIVITY."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return (statistics.median(times) / REFERENCE_S) ** SENSITIVITY


def smoothed(slowdowns: list[float]) -> list[float]:
    """Rolling median of per-pass slowdowns, damping the kernel's own noise."""
    n = len(slowdowns)
    return [
        statistics.median(slowdowns[max(0, i - SMOOTHING):i + SMOOTHING + 1])
        for i in range(n)
    ]
