"""Analysis utilities: fairness indices and the efficiency–fairness frontier.

Beyond reproducing the paper's figures, a downstream operator wants to
*see* the efficiency/fairness trade-off OEF navigates.  This module adds:

* :func:`jain_index` — Jain's fairness index over normalised throughput;
* :func:`min_max_ratio` — worst/best tenant throughput ratio;
* :func:`efficiency_fairness_frontier` — the epsilon-constraint sweep:
  maximise total throughput subject to every tenant receiving at least
  ``alpha`` times its equal-split throughput, for a grid of ``alpha``.
  ``alpha = 0`` is the unconstrained optimum (Eq. 4); ``alpha = 1`` is the
  sharing-incentive-constrained optimum; cooperative OEF sits on this
  frontier at the envy-free point.
* :func:`compare_allocators` — one table row per allocator with total
  efficiency, fairness indices, and property check marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core.allocation import Allocation
from repro.core.base import Allocator
from repro.core.cooperative import capacity_rows
from repro.core.instance import ProblemInstance
from repro.core.properties import check_envy_freeness, check_sharing_incentive, floor_rows
from repro.solver import CSR, FORM_CACHE, StandardForm, fingerprint_arrays, solve_form
from repro.solver.form import nonnegative_bounds


def _add_reduce(values: List[float]) -> float:
    """``np.add.reduce`` of a float64 vector, bit for bit, in plain Python.

    numpy adds a vector pairwise: under 8 values in order, up to 128 in
    eight interleaved partial sums, longer ones as two halves (the first a
    multiple of 8) summed apart; the sum is added to the identity, 0.0, so
    no sum is -0.0.  ``sum()`` would round differently, and from Python
    3.12 on compensates.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _add_reduce(values[:half]) + _add_reduce(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(tail, n):
        total += values[i]
    return 0.0 + total


def jain_index(throughputs: Sequence[float] | np.ndarray) -> float:
    """Jain's fairness index: 1 = perfectly equal, 1/n = maximally unequal.

    Plain Python over a vector's floats, with the bits of the numpy
    formula ``s.sum() ** 2 / (s.size * (s**2).sum())`` for ``s = v / v.max()``
    (numpy's ``max`` is nan when any value is).
    """
    values = list(map(float, throughputs))
    if not values:
        return 1.0
    peak = max(values)
    if peak <= 0:
        return math.nan if any(value != value for value in values) else 1.0
    # the index is scale-invariant; normalising by the max keeps the
    # squares away from float under/overflow for extreme inputs
    scaled = [value / peak for value in values]
    squares = _add_reduce([value * value for value in scaled])
    return float(np.float64(_add_reduce(scaled)) ** 2 / (len(scaled) * squares))


def min_max_ratio(throughputs: Sequence[float] | np.ndarray) -> float:
    """Worst-off over best-off tenant (1 = equal, 0 = someone starves)."""
    values = np.asarray(throughputs, dtype=float)
    if values.size == 0 or values.max() == 0:
        return 1.0
    return float(values.min() / values.max())


@dataclass(frozen=True)
class FrontierPoint:
    """One epsilon-constraint solution."""

    alpha: float
    total_efficiency: float
    min_throughput: float
    jain: float


def frontier_point(instance: ProblemInstance, alpha: float) -> FrontierPoint:
    """One epsilon-constraint solve: max efficiency with fairness floor ``alpha``.

    A single, self-contained LP — the unit of work
    :func:`efficiency_fairness_frontier` sweeps over, exposed so batch
    runners can fan independent alphas out to worker threads/processes.
    """
    speedups = instance.speedups.values
    num_users, num_types = speedups.shape
    solution = solve_form(_frontier_form(instance, float(alpha)))
    matrix = np.clip(solution.values.reshape(num_users, num_types), 0.0, None)
    throughputs = np.einsum("lj,lj->l", speedups, matrix)
    return FrontierPoint(
        alpha=float(alpha),
        total_efficiency=float(throughputs.sum()),
        min_throughput=float(throughputs.min()),
        jain=jain_index(throughputs),
    )


def _frontier_form(instance: ProblemInstance, alpha: float) -> StandardForm:
    """The epsilon-constraint LP as a direct sparse standard form.

    Assembly is vectorized block composition (one capacity block, one
    per-user throughput block) instead of the historical per-row Python
    loops, and the ``alpha``-independent part — the matrices, which is
    all of the assembly cost — is memoised in the shared form cache;
    each alpha then only rewrites the throughput-floor right-hand side.
    """
    speedups = instance.speedups.values
    num_users, num_types = speedups.shape
    fair = instance.equal_split_throughput()
    key = fingerprint_arrays(
        speedups, instance.capacities, fair, extra=("frontier-base",)
    )

    def build() -> StandardForm:
        capacity = capacity_rows(num_users, num_types)
        # W_l . x_l >= alpha * fair_l, negated into the <= system
        floors = floor_rows(speedups)
        return StandardForm(
            c=-speedups.ravel(),
            a_ub=CSR.vstack([capacity, floors]),
            b_ub=np.concatenate(
                [np.asarray(instance.capacities, dtype=float), np.zeros(num_users)]
            ),
            a_eq=None,
            b_eq=None,
            bounds=nonnegative_bounds(num_users * num_types),
            maximise=True,
        )

    base = FORM_CACHE.get_or_build(key, build)
    if alpha == 0.0:
        return base
    b_ub = base.b_ub.copy()
    b_ub[num_types:] = -alpha * fair
    return StandardForm(
        c=base.c,
        a_ub=base.a_ub,
        b_ub=b_ub,
        a_eq=None,
        b_eq=None,
        bounds=base.bounds,
        maximise=True,
    )


def efficiency_fairness_frontier(
    instance: ProblemInstance,
    alphas: Iterable[float] = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
) -> List[FrontierPoint]:
    """Max total throughput s.t. ``E_l >= alpha * (W_l . m/n)`` per alpha.

    Monotone non-increasing in ``alpha``: fairness floors cost efficiency.
    For a parallel sweep over the alphas use
    :meth:`repro.gateway.Gateway.frontier` with ``backend=``.
    """
    return [frontier_point(instance, alpha) for alpha in alphas]


def compare_allocators(
    allocators: Sequence[Allocator],
    instance: ProblemInstance,
) -> List[Dict[str, object]]:
    """One summary row per allocator: efficiency + fairness profile."""
    rows: List[Dict[str, object]] = []
    for allocator in allocators:
        allocation = allocator.allocate(instance)
        throughputs = allocation.user_throughput()
        rows.append(
            {
                "scheduler": allocator.name,
                "total efficiency": float(throughputs.sum()),
                "min throughput": float(throughputs.min()),
                "jain index": jain_index(throughputs),
                "min/max ratio": min_max_ratio(throughputs),
                "envy-free": check_envy_freeness(allocation).satisfied,
                "sharing-incentive": check_sharing_incentive(allocation).satisfied,
            }
        )
    return rows
