"""A reference piece of work, timed next to every block, and the scale it gives.

The sandbox is a two-vCPU guest of a shared host whose cores run at two
speeds: the same code reads 0.55 ms per request for some seconds and 1.2 ms
for the next twenty, with process CPU time moving along with the wall
clock — the core is slower, it is not taken away — so no statistic of one
run's wall times repeats (spread 0.5 between ten runs).  What does repeat
is the cost of the program *relative to other code run at the same
moment*: in five-second windows the wall time of a replay block moved by
1.78x and its ratio to the reference below by 1.14x.

So every timed block is preceded and followed by :func:`reference`, about
6 ms of the same kinds of work the program is made of — interpreter loop,
object and dict churn, JSON codec, numpy vector kernels (no BLAS: its
thread pool would want both cores) — and its seconds are multiplied by
:func:`scale`: they become *reference seconds*, the time the block would
have taken had the reference run in :data:`NOMINAL_S` throughout (a set-up's
seconds by the scale of the five calls that follow it).  A change
to the program moves the ratio exactly as it moves the wall time; a change
of host speed moves both sides of it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: What :func:`reference` takes on an undisturbed core of the host the
#: workload sizes were probed on (lower quartile of 400 calls in a quiet
#: minute).  Only a unit: it makes reference seconds read like that host's
#: quiet seconds.
NOMINAL_S = 0.0063


class _Cell:
    __slots__ = ("number", "label")

    def __init__(self, number: int, label: str):
        self.number, self.label = number, label


_PAYLOAD = {"rows": [[float(i * j) for j in range(8)] for i in range(32)], "name": "abc" * 10}
_VECTOR = np.random.default_rng(0).random(4000)


def reference() -> float:
    """Run the reference work once; seconds it took."""
    started = time.perf_counter()
    total = 0
    for i in range(45000):
        total += i * i
    cells = {}
    for i in range(4000):
        cell = _Cell(i, str(i))
        cells[cell.label] = cell
    total += sum(cell.number for cell in cells.values())
    for _ in range(25):
        json.loads(json.dumps(_PAYLOAD))
    for _ in range(12):
        np.sort(_VECTOR * 1.0001 + _VECTOR).cumsum()
    return time.perf_counter() - started


def settled_reference() -> float:
    """The median of five calls: for a one-off span (a set-up) that has no
    blocks around it to take a median over."""
    return statistics.median(reference() for _ in range(5))


def scale(before: float, after: float) -> float:
    """Wall seconds -> reference seconds, for work done between two
    :func:`reference` calls that took ``before`` and ``after`` seconds."""
    return NOMINAL_S / ((before + after) / 2.0)
