"""A fixed calibration kernel that tracks the speed of a shared machine.

On a virtual machine shared with other tenants, the speed of one Python
thread swings by up to a factor of two over seconds to minutes, which no
run of a few tens of seconds can average away.  The benchmark therefore
times this kernel next to every operation and scales each latency by
``NOMINAL_S / (local kernel time)``: a latency is reported as it would read
if the kernel took `NOMINAL_S`.  The kernel does what the library's hot
paths do (allocate small frozen dataclasses, hash and compare tuples, fill
a dict, walk a linked structure) and uses no code of the library, so a
change to the library cannot move it.  The raw, unscaled figures are in
the benchmark's ``detail`` line.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

# kernel time on a 2-vCPU virtual machine at its faster speed (Python 3.11)
NOMINAL_S = 0.00025
WINDOW = 5      # samples on each side of an operation that set its speed


@dataclass(frozen=True)
class _Cell:
    next: object
    value: int


def kernel() -> int:
    cells = None
    index = {}
    for i in range(300):
        cells = _Cell(cells, i)
        index[(i, i & 7)] = cells
    total = 0
    while cells is not None:
        total += hash((cells.value, cells.value & 3)) & 1
        total += (cells.value, 0) < (cells.value, 1)
        cells = cells.next
    return total + len(index)


def sample() -> float:
    """One timing of the kernel, with the collector paused so that garbage
    left by the library is not collected on the kernel's clock."""
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def scales(samples: list[float]) -> list[float]:
    """Per-sample factor NOMINAL_S / (median kernel time around it)."""
    out = []
    for i in range(len(samples)):
        local = statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(NOMINAL_S / local)
    return out
