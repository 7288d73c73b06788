"""Solver hot-path benchmark: the vectorized sparse pipeline vs legacy.

The acceptance bars of the sparse-solver rework, all recorded in one
``BENCH_solver.json`` record (family ``solver`` in the persistent
ledger):

* **cold cooperative solve** at the paper's Fig. 10(a) scale (300 users
  x 10 GPU types) must run **>= 5x** faster through the persistent
  incremental-HiGHS cutting-plane path than through the per-round loop
  of cold one-shot solves it replaced (kept below as
  :func:`_cutting_plane_per_round`), with the objective matching to 1e-6
  relative — the warm session must never buy speed with a different
  optimum;
* **cold assembly** of the full Eq. 10 standard form is pure vectorized
  sparse block composition; re-assembly through the form cache must not
  be slower than cold assembly (it is typically orders of magnitude
  faster — the row asserts only the direction so a one-sample CI blip
  cannot flap the gate);
* **frontier sweep**: a second epsilon-constraint sweep over the same
  instance (cached matrices, fresh right-hand sides) must not be slower
  than the first.
"""

import time

from typing import List, Optional, Tuple

import numpy as np

from repro.benchio import bench_output_path, bench_stats, write_bench_json
from repro.core.allocation import Allocation
from repro.core.analysis import efficiency_fairness_frontier
from repro.core.cooperative import CooperativeOEF, _share_bounds, eq10_rows
from repro.core.instance import GroupedInstance
from repro.solver import FORM_CACHE, StandardForm, solve_form
from repro.workloads.generator import random_instance

#: Fig. 10(a) scale: the paper's largest cooperative-OEF evaluation.
USERS, GPU_TYPES = 300, 10
SEED = 23
#: The headline acceptance bar for the incremental cutting-plane path.
COLD_SPEEDUP_FLOOR = 5.0
NEW_PATH_REPEATS = 3
FRONTIER_USERS, FRONTIER_GPU_TYPES = 60, 6


def _fig10a_instance():
    return random_instance(USERS, GPU_TYPES, seed=SEED, devices_per_type=float(USERS))


def _cutting_plane_per_round(
    self: CooperativeOEF,
    instance: GroupedInstance,
    seeds: List[Tuple[int, int]],
    tol: float,
) -> Optional[np.ndarray]:
    """Per-round cold solves — the portable cutting-plane loop.

    ``CooperativeOEF._cutting_plane_linprog`` as the allocator ran it
    until the incremental session became its only cut path, the LP
    backend argument aside: each round is one cold ``solve_form``.
    At 300x10 the incremental session takes 1.37 s, this loop 7.05 s
    and the full O(n²) program 21.1 s (100x8: 0.080 / 0.361 /
    0.272 s).
    """
    speedups, multiplicity = instance.speedups, instance.multiplicity
    num_users, num_types = speedups.shape
    capacities = np.asarray(instance.capacities, dtype=float)
    active = set(seeds)

    for _round in range(self.MAX_CUT_ROUNDS):
        pairs = sorted(active)
        form = StandardForm(
            c=-speedups.ravel(),
            a_ub=eq10_rows(speedups, multiplicity, pairs),
            b_ub=np.concatenate([capacities, np.zeros(len(pairs))]),
            a_eq=None,
            b_eq=None,
            bounds=_share_bounds(num_users * num_types),
            maximise=True,
        )
        solution = solve_form(form)
        matrix = np.clip(
            solution.values.reshape(num_users, num_types), 0.0, None
        )
        new_pairs = [
            pair
            for pair in self._violated_pairs(instance, matrix, tol)
            if pair not in active
        ]
        if not new_pairs:
            return matrix
        active.update(new_pairs)
    return None  # fall back to the full program


def _per_round_allocate(instance, tol: float = 1e-7) -> Allocation:
    """``CooperativeOEF().allocate`` with the per-round loop as its cut path."""
    allocator = CooperativeOEF()
    groups = instance.grouped()
    seeds = allocator._seed_pairs(groups, tol)
    shares = _cutting_plane_per_round(allocator, groups, seeds, tol)
    if shares is None:
        shares = allocator._solve_full(groups)
    return Allocation(groups.expand(shares), instance, allocator_name=allocator.name)


def test_bench_solver(benchmark):
    instance = _fig10a_instance()

    def run():
        # -- cold cooperative solve: incremental session vs per-round cold
        new_samples, objectives = [], []
        for _ in range(NEW_PATH_REPEATS):
            FORM_CACHE.clear()
            start = time.perf_counter()
            allocation = CooperativeOEF().allocate(instance)
            new_samples.append(time.perf_counter() - start)
            objectives.append(allocation.total_efficiency())
        start = time.perf_counter()
        legacy_allocation = _per_round_allocate(instance)
        legacy_sample = time.perf_counter() - start

        # -- cold vs cached assembly of the full Eq. 10 form
        small = random_instance(48, 6, seed=5, devices_per_type=48.0).grouped()
        assembly_cold, assembly_cached = [], []
        allocator = CooperativeOEF(method="full")
        for _ in range(5):
            FORM_CACHE.clear()
            start = time.perf_counter()
            allocator._full_form(small)
            assembly_cold.append(time.perf_counter() - start)
            start = time.perf_counter()
            allocator._full_form(small)
            assembly_cached.append(time.perf_counter() - start)

        # -- frontier sweep: cold assembly vs cached matrices
        frontier_instance = random_instance(
            FRONTIER_USERS, FRONTIER_GPU_TYPES, seed=7,
            devices_per_type=float(FRONTIER_USERS),
        )
        FORM_CACHE.clear()
        start = time.perf_counter()
        efficiency_fairness_frontier(frontier_instance)
        frontier_cold = time.perf_counter() - start
        start = time.perf_counter()
        efficiency_fairness_frontier(frontier_instance)
        frontier_cached = time.perf_counter() - start

        return (
            new_samples,
            objectives,
            legacy_sample,
            legacy_allocation.total_efficiency(),
            assembly_cold,
            assembly_cached,
            frontier_cold,
            frontier_cached,
        )

    (
        new_samples,
        objectives,
        legacy_sample,
        legacy_objective,
        assembly_cold,
        assembly_cached,
        frontier_cold,
        frontier_cached,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    # speed must never buy a different optimum
    for objective in objectives:
        assert objective == _approx(legacy_objective)

    cold_speedup = legacy_sample / min(new_samples)
    assembly_ratio = min(assembly_cold) / max(min(assembly_cached), 1e-9)
    frontier_ratio = frontier_cold / max(frontier_cached, 1e-9)

    rows = [
        {
            "name": "coop-cold/incremental",
            **bench_stats(new_samples),
            "speedup_vs_legacy": cold_speedup,
            "objective": objectives[0],
        },
        {
            # the row keeps its name so the ledger series stays one series
            "name": "coop-cold/legacy-linprog",
            **bench_stats([legacy_sample]),
            "objective": legacy_objective,
        },
        {
            "name": "assembly/cold",
            **bench_stats(assembly_cold),
            "cached_speedup": assembly_ratio,
        },
        {"name": "assembly/cached", **bench_stats(assembly_cached)},
        {
            "name": "frontier/cold",
            **bench_stats([frontier_cold]),
            "cached_speedup": frontier_ratio,
        },
        {"name": "frontier/cached", **bench_stats([frontier_cached])},
    ]
    path = write_bench_json(
        bench_output_path("BENCH_solver.json"),
        "solver",
        rows,
        meta={
            "users": USERS,
            "gpu_types": GPU_TYPES,
            "seed": SEED,
            "cold_speedup_floor": COLD_SPEEDUP_FLOOR,
            "frontier_users": FRONTIER_USERS,
        },
    )
    benchmark.extra_info["bench_json"] = path
    benchmark.extra_info["cold_speedup"] = round(cold_speedup, 2)

    assert cold_speedup >= COLD_SPEEDUP_FLOOR, (
        f"incremental cutting-plane path is only {cold_speedup:.2f}x the "
        f"legacy cold loop (floor {COLD_SPEEDUP_FLOOR}x)"
    )
    assert assembly_ratio >= 1.0, (
        f"cached form assembly slower than cold ({assembly_ratio:.2f}x)"
    )
    assert frontier_ratio >= 1.0, (
        f"cached frontier sweep slower than cold ({frontier_ratio:.2f}x)"
    )


def _approx(value):
    import pytest

    return pytest.approx(value, rel=1e-6)
