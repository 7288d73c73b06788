"""Micro-benchmark: the gateway's content-hash cache on repeated solves.

``compare`` and ``frontier`` re-solve the same instance many times — the
hot path the :class:`~repro.gateway.Gateway` cache stage memoizes.
The cold benches run each repetition against a fresh gateway (every solve
is an LP); the cached benches share one pre-warmed gateway, so repeats
are pure cache hits.  The measured speedup and the hit counters land in
``extra_info``.
"""

import pytest

from repro.gateway import Gateway
from repro.workloads.generator import zoo_instance

#: compare/frontier repetitions per measurement — the "round-based
#: simulation with an unchanged tenant set" access pattern.
REPEATS = 5
SCHEDULERS = ["oef-coop", "oef-noncoop", "gavel", "max-min", "nash-welfare"]
ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture
def instance():
    return zoo_instance(["vgg16", "resnet50", "transformer", "lstm"])


def _compare_repeatedly(gateway, instance):
    rows = None
    for _ in range(REPEATS):
        rows = gateway.compare(instance, SCHEDULERS)
    return rows


def _frontier_repeatedly(gateway, instance):
    points = None
    for _ in range(REPEATS):
        points = gateway.frontier(instance, ALPHAS)
    return points


def _cold(fn, instance):
    """Run each repetition against a brand-new gateway so nothing hits."""
    result = None
    for _ in range(REPEATS):
        gateway = Gateway()
        result = fn(gateway, instance)
        assert gateway.cache_info().hits == 0
    return result


def test_bench_compare_cold(benchmark, instance):
    rows = benchmark.pedantic(
        lambda: _cold(lambda g, i: g.compare(i, SCHEDULERS), instance),
        rounds=1,
        iterations=1,
    )
    assert len(rows) == len(SCHEDULERS)
    benchmark.extra_info["repeats"] = REPEATS


def test_bench_compare_cached(benchmark, instance):
    gateway = Gateway()
    cold_rows = gateway.compare(instance, SCHEDULERS)  # warm the cache
    rows = benchmark.pedantic(
        lambda: _compare_repeatedly(gateway, instance), rounds=1, iterations=1
    )
    assert rows == cold_rows
    stats = gateway.cache_info()
    assert stats.hits >= REPEATS * len(SCHEDULERS)
    benchmark.extra_info["cache_hits"] = stats.hits
    benchmark.extra_info["cache_misses"] = stats.misses
    benchmark.extra_info["hit_rate"] = round(stats.hit_rate, 3)


def test_bench_frontier_cold(benchmark, instance):
    points = benchmark.pedantic(
        lambda: _cold(lambda g, i: g.frontier(i, ALPHAS), instance),
        rounds=1,
        iterations=1,
    )
    assert len(points) == len(ALPHAS)
    benchmark.extra_info["repeats"] = REPEATS


def test_bench_frontier_cached(benchmark, instance):
    gateway = Gateway()
    cold_points = gateway.frontier(instance, ALPHAS)  # warm the cache
    points = benchmark.pedantic(
        lambda: _frontier_repeatedly(gateway, instance), rounds=1, iterations=1
    )
    assert points == cold_points
    stats = gateway.cache_info()
    assert stats.hits >= REPEATS
    benchmark.extra_info["cache_hits"] = stats.hits
    benchmark.extra_info["hit_rate"] = round(stats.hit_rate, 3)
