"""Machine-speed calibration for host times measured on a shared machine.

On a shared host the same chunk of trials can take anywhere from 0.5 s
to 1.6 s, depending on what other tenants of the machine are doing. A
fixed pure-Python loop timed right next to a measured call runs at the
same momentary machine speed. So host time * REFERENCE_S / calibration
is the host time the call would take at the reference speed.

The loop is benchmark code only, so no change to scatterjoin can move
it. It allocates no objects that the garbage collector tracks, so the
size of the program's heap does not move it either.
"""

from __future__ import annotations

import heapq
import math
import time

# Median time of calibration_s() on the reference machine, a 2-core
# Intel Xeon at 2.1 GHz with Python 3.11.7. It is a fixed scale: changing
# it rescales every reported time alike.
REFERENCE_S = 0.004
_ROUNDS = 5000


class _Cell:
    __slots__ = ("x",)


def calibration_s() -> float:
    """Seconds that one fixed round of heap, dict, attribute and float
    work takes right now."""
    cell = _Cell()
    cell.x = 0.0
    heap: list[float] = []
    counts = dict.fromkeys(range(64), 0)
    t0 = time.perf_counter()
    for i in range(_ROUNDS):
        heapq.heappush(heap, (i * 7919 % 10007) * 0.5)
        counts[i & 63] += 1
        cell.x += math.sqrt(i)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def at_reference(host_s: float, calibrations: list[float]) -> float:
    """host_s rescaled to the reference speed, given the calibrations
    taken around it."""
    return host_s * REFERENCE_S * len(calibrations) / math.fsum(calibrations)
