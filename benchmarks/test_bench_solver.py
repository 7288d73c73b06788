"""Solver hot-path benchmark: the vectorized sparse pipeline vs legacy.

The acceptance bars of the sparse-solver rework, all recorded in one
``BENCH_solver.json`` record (family ``solver`` in the persistent
ledger):

* **cold cooperative solve** at the paper's Fig. 10(a) scale (300 users
  x 10 GPU types) must run **>= 5x** faster through the persistent
  incremental-HiGHS cutting-plane path than through the per-round cold
  ``linprog`` loop it replaces, with the objective matching to 1e-6
  relative — the batching/warm-session machinery must never buy speed
  with a different optimum;
* **cold assembly** of the full Eq. 10 standard form is pure vectorized
  sparse block composition; re-assembly through the form cache must not
  be slower than cold assembly (it is typically orders of magnitude
  faster — the row asserts only the direction so a one-sample CI blip
  cannot flap the gate);
* **batched solves**: composing many independent small LPs
  block-diagonally through ``solve_forms`` must return
  certified-identical values.  Its speed-up over the solo loop is
  recorded, not gated: the ~2x it showed was ``linprog``'s per-call
  Python amortised over the batch, and since one-shot solves go
  straight to HiGHS it reads 0.94-1.15x here (2.32-2.45x before);
* **frontier sweep**: a second epsilon-constraint sweep over the same
  instance (cached matrices, fresh right-hand sides) must not be slower
  than the first.
"""

import time

import numpy as np

import repro.core.cooperative as coop_mod
from repro.benchio import bench_output_path, bench_stats, write_bench_json
from repro.core.analysis import efficiency_fairness_frontier
from repro.core.cooperative import CooperativeOEF
from repro.core.noncooperative import NonCooperativeOEF
from repro.solver import FORM_CACHE, solve_form, solve_forms
from repro.workloads.generator import random_instance

#: Fig. 10(a) scale: the paper's largest cooperative-OEF evaluation.
USERS, GPU_TYPES = 300, 10
SEED = 23
#: The headline acceptance bar for the incremental cutting-plane path.
COLD_SPEEDUP_FLOOR = 5.0
NEW_PATH_REPEATS = 3
BATCH_INSTANCES = 24
BATCH_USERS, BATCH_GPU_TYPES = 12, 4
FRONTIER_USERS, FRONTIER_GPU_TYPES = 60, 6


def _fig10a_instance():
    return random_instance(USERS, GPU_TYPES, seed=SEED, devices_per_type=float(USERS))


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
        original = coop_mod.incremental_available
        coop_mod.incremental_available = lambda: False
        try:
            start = time.perf_counter()
            legacy_allocation = CooperativeOEF().allocate(instance)
            legacy_sample = time.perf_counter() - start
        finally:
            coop_mod.incremental_available = original

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

        # -- batched independent small LPs vs the solo loop
        noncoop = NonCooperativeOEF()
        forms = [
            noncoop.compile_form(
                random_instance(
                    BATCH_USERS,
                    BATCH_GPU_TYPES,
                    seed=seed,
                    devices_per_type=float(BATCH_USERS),
                )
            )
            for seed in range(BATCH_INSTANCES)
        ]
        solo_samples, batch_samples = [], []
        for _ in range(3):
            start = time.perf_counter()
            solo_solutions = [solve_form(form) for form in forms]
            solo_samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            batch_solutions = solve_forms(forms)
            batch_samples.append(time.perf_counter() - start)

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
            solo_samples,
            batch_samples,
            solo_solutions,
            batch_solutions,
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
        solo_samples,
        batch_samples,
        solo_solutions,
        batch_solutions,
        frontier_cold,
        frontier_cached,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    # speed must never buy a different optimum
    for objective in objectives:
        assert objective == _approx(legacy_objective)
    for solo, batched in zip(solo_solutions, batch_solutions):
        np.testing.assert_allclose(batched.values, solo.values, atol=1e-8)

    cold_speedup = legacy_sample / min(new_samples)
    batch_speedup = min(solo_samples) / min(batch_samples)
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
            "name": "batch/composed",
            **bench_stats(batch_samples),
            "speedup_vs_solo": batch_speedup,
            "matches_solo": True,
        },
        {"name": "batch/solo", **bench_stats(solo_samples)},
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
            "batch_instances": BATCH_INSTANCES,
            "frontier_users": FRONTIER_USERS,
        },
    )
    benchmark.extra_info["bench_json"] = path
    benchmark.extra_info["cold_speedup"] = round(cold_speedup, 2)
    benchmark.extra_info["batch_speedup"] = round(batch_speedup, 2)

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
