"""Speedup benchmark: the parallel execution engine vs the serial path.

Two workloads from the acceptance bar of the parallel engine:

* a 32-instance ``solve_batch`` over threads (48 users x 12 GPU types
  each — ~90 ms of LP per solve, spent in HiGHS with the GIL released),
  and
* a 4-experiment suite run (``table1``/``fig7``/``fig8``/``fig9``, the
  mid-weight experiments) on a process pool with ``--jobs 4``.

Each bench times the serial baseline in-line, runs the parallel version
under the benchmark clock, verifies the parallel results are *identical*
to serial, and attaches the measured speedup as ``extra_info``.  The
speedup floor scales with the machine: >=2x is asserted on >=4 usable
cores (the CI runner class named in the acceptance criteria), a softer
floor on 2-3 cores, and on a single core only correctness is asserted —
there is no parallelism to buy a speedup with.
"""

import time

import numpy as np
import pytest

from repro.benchio import bench_output_path, bench_stats, write_bench_json
from repro.experiments.runner import run_suite, suite_ok
from repro.gateway import Gateway, Request
from repro.parallel import cpu_count
from repro.workloads.generator import random_instance

CORES = cpu_count()
WORKERS = 4
NUM_INSTANCES = 32
USERS, GPU_TYPES = 48, 12
SUITE = ["table1", "fig7", "fig8", "fig9"]


def _speedup_floor() -> float:
    if CORES >= 4:
        return 2.0
    if CORES >= 2:
        return 1.2
    return 0.0  # single core: assert correctness only


def test_bench_solve_batch_parallel(benchmark):
    requests = [
        Request(random_instance(USERS, GPU_TYPES, seed=seed), "oef-coop")
        for seed in range(NUM_INSTANCES)
    ]

    start = time.perf_counter()
    serial = Gateway().solve_batch(requests)
    serial_seconds = time.perf_counter() - start

    gateway = Gateway()
    timing = {}

    def run_parallel():
        gateway.clear_cache()
        start = time.perf_counter()
        results = gateway.solve_batch(
            requests, backend="thread", max_workers=WORKERS
        )
        timing["seconds"] = time.perf_counter() - start
        return results

    parallel = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    parallel_seconds = timing["seconds"]

    # identical allocations to the serial path
    for a, b in zip(serial, parallel):
        np.testing.assert_allclose(
            a.allocation.matrix, b.allocation.matrix, atol=1e-9
        )
    # every dispatch went through the cache stage: the repeat is pure hits
    assert all(result.from_cache for result in gateway.solve_batch(requests))

    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info["cores"] = CORES
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    # machine-readable perf record, tracked between PRs (repro/bench-v1)
    write_bench_json(
        bench_output_path("BENCH_parallel.json"),
        "parallel",
        [
            {"name": "serial", **bench_stats([serial_seconds])},
            {
                "name": "thread",
                **bench_stats([parallel_seconds]),
                "speedup_vs_serial": round(speedup, 2),
            },
        ],
        meta={
            "cores": CORES,
            "workers": WORKERS,
            "instances": NUM_INSTANCES,
            "users": USERS,
            "gpu_types": GPU_TYPES,
        },
    )
    floor = _speedup_floor()
    if floor:
        assert speedup >= floor, (
            f"solve_batch speedup {speedup:.2f}x on {CORES} cores "
            f"(expected >= {floor}x)"
        )


def test_bench_experiment_suite_parallel(benchmark):
    import io

    start = time.perf_counter()
    serial = run_suite(SUITE, backend="serial", stream=io.StringIO())
    serial_seconds = time.perf_counter() - start
    assert suite_ok(serial)

    timing = {}

    def run_parallel():
        start = time.perf_counter()
        outcomes = run_suite(
            SUITE, backend="process", jobs=WORKERS, stream=io.StringIO()
        )
        timing["seconds"] = time.perf_counter() - start
        return outcomes

    parallel = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    parallel_seconds = timing["seconds"]

    assert suite_ok(parallel)
    assert [outcome.name for outcome in parallel] == SUITE

    speedup = serial_seconds / parallel_seconds
    benchmark.extra_info["cores"] = CORES
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    floor = _speedup_floor()
    if floor:
        assert speedup >= floor, (
            f"suite speedup {speedup:.2f}x on {CORES} cores "
            f"(expected >= {floor}x)"
        )
