"""Gateway pipeline benchmark: pipeline-on vs pipeline-off solves.

The acceptance bar of the middleware-pipeline redesign: routing solves
through the full default pipeline (admission → metrics → coalesce →
cache → solver) must cost **within 5%** of a bare solver-only pipeline
on the cold, LP-dominated path — the interceptor chain is bookkeeping,
the LP is the work — while the cache-hit hot path replays the same
request set **>= 10x** faster than cold bare solves.  Allocations must match the bare pipeline **bit
for bit** in every mode.

Like the warm-start benchmark this trades cached work for cache
lookups, not cores for pools, so the floors hold on a single-core CI
runner.  Stats for all three modes land in one ``BENCH_gateway.json``
record (see :mod:`repro.benchio`) so the gateway perf trajectory is
tracked between PRs; ``repro bench --json`` writes the same record from
the CLI.
"""

import time

import numpy as np

from repro.benchio import bench_output_path, bench_stats, write_bench_json
from repro.gateway import Gateway, Request, bare_pipeline, default_pipeline
from repro.workloads.generator import random_instance

REPEATS = 5
INSTANCES = 12
USERS = 16
GPU_TYPES = 6
#: LP-backed schedulers only: the 5% criterion is about the LP-dominated
#: cold path (closed-form baselines like max-min solve in microseconds,
#: where timer noise — not pipeline overhead — dominates the ratio).
SCHEDULERS = ("oef-coop", "oef-noncoop")
#: Cold pipeline overhead bound vs bare: the 5% acceptance criterion.
OVERHEAD_CEILING = 1.05
#: Hot-path floor: cached replay vs cold bare solves.
HOT_SPEEDUP_FLOOR = 10.0


def _requests():
    instances = [
        random_instance(USERS, GPU_TYPES, seed=seed) for seed in range(INSTANCES)
    ]
    return [
        Request(instance=instance, scheduler=scheduler)
        for instance in instances
        for scheduler in SCHEDULERS
    ]


def _timed_passes(gateway, requests, repeats, clear: bool):
    """(per-pass seconds, last pass's responses)."""
    samples, responses = [], None
    for _ in range(repeats):
        if clear:
            gateway.clear_cache()
        start = time.perf_counter()
        responses = [gateway.solve(request) for request in requests]
        samples.append(time.perf_counter() - start)
    return samples, responses


def test_bench_gateway_pipeline(benchmark):
    requests = _requests()

    def run():
        bare = Gateway(bare_pipeline())
        bare_samples, bare_responses = _timed_passes(
            bare, requests, REPEATS, clear=False
        )
        pipeline = Gateway(default_pipeline())
        cold_samples, cold_responses = _timed_passes(
            pipeline, requests, REPEATS, clear=True
        )
        pipeline.clear_cache()
        for request in requests:  # warm the cache for the hot passes
            pipeline.solve(request)
        hot_samples, hot_responses = _timed_passes(
            pipeline, requests, REPEATS, clear=False
        )
        return (
            (bare_samples, bare_responses),
            (cold_samples, cold_responses),
            (hot_samples, hot_responses),
        )

    (bare, cold, hot) = benchmark.pedantic(run, rounds=1, iterations=1)
    bare_samples, bare_responses = bare
    cold_samples, cold_responses = cold
    hot_samples, hot_responses = hot

    # every mode must match the bare pipeline bit for bit
    for responses in (cold_responses, hot_responses):
        for response, reference in zip(responses, bare_responses):
            np.testing.assert_array_equal(
                response.allocation.matrix, reference.allocation.matrix
            )
    assert all(r.disposition == "cache-hit" for r in hot_responses)

    bare_stats = bench_stats(bare_samples)
    cold_stats = bench_stats(cold_samples)
    hot_stats = bench_stats(hot_samples)
    # ratios use the min estimator — the standard noise-robust choice for
    # microbenchmarks; p50/p95 still land in the JSON record
    overhead = min(cold_samples) / min(bare_samples)
    hot_speedup = min(bare_samples) / min(hot_samples)

    rows = [
        {"name": "bare/cold", **bare_stats},
        {"name": "pipeline/cold", **cold_stats, "overhead_vs_bare": overhead},
        {
            "name": "pipeline/hot",
            **hot_stats,
            "speedup_vs_bare_cold": hot_speedup,
            "matches_bare": True,
        },
    ]
    path = write_bench_json(
        bench_output_path("BENCH_gateway.json"),
        "gateway",
        rows,
        meta={
            "instances": INSTANCES,
            "users": USERS,
            "gpu_types": GPU_TYPES,
            "schedulers": list(SCHEDULERS),
            "repeats": REPEATS,
            "overhead_ceiling": OVERHEAD_CEILING,
            "hot_speedup_floor": HOT_SPEEDUP_FLOOR,
        },
    )
    benchmark.extra_info["bench_json"] = path
    benchmark.extra_info["overhead_vs_bare"] = round(overhead, 4)
    benchmark.extra_info["hot_speedup"] = round(hot_speedup, 2)

    assert overhead <= OVERHEAD_CEILING, (
        f"cold pipeline overhead {overhead:.3f}x exceeds the "
        f"{OVERHEAD_CEILING:.2f}x acceptance ceiling"
    )
    assert hot_speedup >= HOT_SPEEDUP_FLOOR, (
        f"cache-hit hot path only {hot_speedup:.1f}x faster than bare "
        f"cold solves (floor {HOT_SPEEDUP_FLOOR:.0f}x)"
    )
