"""Execution backends, parallel batch solves, and graceful degradation."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Allocation, Allocator, ProblemInstance, SpeedupMatrix
from repro.exceptions import ValidationError
from repro.parallel import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    cpu_count,
    get_backend,
    parallel_map,
    probe_picklable,
)
from repro.gateway import Gateway, Request
from repro.registry import SchedulerRegistry, register_scheduler
from repro.workloads.generator import random_instance


def _square(value: int) -> int:
    return value * value


def _requests(instances, schedulers, **directives):
    """The instance-major cross product as explicit gateway requests."""
    if isinstance(schedulers, str):
        schedulers = [schedulers]
    return [
        Request(instance, name, **directives)
        for instance in instances
        for name in schedulers
    ]


class _EqualSplit(Allocator):
    """Deterministic test allocator: every user gets capacity / n.

    Accepts arbitrary constructor options so tests can smuggle in
    unpicklable payloads (``hook``) without a real scheduler caring.
    """

    name = "equal-split-test"

    def __init__(self, factor: float = 1.0, hook=None):
        self.factor = factor
        self.hook = hook

    def allocate(self, instance: ProblemInstance) -> Allocation:
        share = np.asarray(instance.capacities, dtype=float) / instance.num_users
        matrix = np.tile(share * self.factor, (instance.num_users, 1))
        return Allocation(matrix, instance, allocator_name=self.name)


class _ThreadUnsafe(_EqualSplit):
    """Module-level (hence picklable) but declared thread-unsafe."""

    name = "thread-unsafe-test"


@pytest.fixture
def test_registry() -> SchedulerRegistry:
    """A private registry holding capability-flag variants of _EqualSplit."""
    registry = SchedulerRegistry()
    register_scheduler(
        _EqualSplit, name="equal-split-test", registry=registry
    )
    register_scheduler(
        type("_ThreadOnly", (_EqualSplit,), {"name": "thread-only-test"}),
        name="thread-only-test",
        picklable=False,
        registry=registry,
    )
    register_scheduler(
        type("_SerialOnly", (_EqualSplit,), {"name": "serial-only-test"}),
        name="serial-only-test",
        parallel_safe=False,
        picklable=False,
        registry=registry,
    )
    register_scheduler(
        _ThreadUnsafe,
        name="thread-unsafe-test",
        parallel_safe=False,  # picklable stays True: process pools are fine
        registry=registry,
    )
    return registry


class TestBackends:
    def test_serial_map_preserves_order(self):
        assert SerialBackend().map(_square, range(5)) == [0, 1, 4, 9, 16]

    def test_thread_map_preserves_order(self):
        assert ThreadBackend(4).map(_square, range(20)) == [
            value * value for value in range(20)
        ]

    def test_process_map_preserves_order(self):
        assert ProcessBackend(2).map(_square, range(8)) == [
            value * value for value in range(8)
        ]

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("thread"), ThreadBackend)
        assert isinstance(get_backend("process"), ProcessBackend)
        assert get_backend("THREAD").max_workers >= 1

    def test_get_backend_passthrough_and_unknown(self):
        backend = ThreadBackend(2)
        assert get_backend(backend) is backend
        with pytest.raises(ValidationError, match="unknown execution backend"):
            get_backend("gpu")

    def test_auto_serial_for_single_task(self):
        assert isinstance(get_backend("auto", task_count=1), SerialBackend)

    def test_auto_respects_core_count(self):
        resolved = get_backend("auto", task_count=8)
        if cpu_count() > 1:
            assert isinstance(resolved, ProcessBackend)
        else:
            assert isinstance(resolved, SerialBackend)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValidationError, match="max_workers"):
            ThreadBackend(0)

    def test_parallel_map_convenience(self):
        assert parallel_map(_square, range(6), backend="thread") == [
            value * value for value in range(6)
        ]

    def test_backend_names_constant(self):
        assert set(BACKEND_NAMES) == {"auto", "serial", "thread", "process"}

    def test_probe_picklable(self):
        assert probe_picklable({"a": np.arange(3)})
        assert not probe_picklable(lambda: None)

    def test_unpicklable_payload_degrades_process_to_threads(self):
        with pytest.warns(RuntimeWarning, match="not picklable") as caught:
            resolved = get_backend("process", 3, payload=[lambda: None])
        assert isinstance(resolved, ThreadBackend) and resolved.max_workers == 3
        # an already-built process backend degrades the same way
        with pytest.warns(RuntimeWarning, match="not picklable"):
            assert isinstance(
                get_backend(ProcessBackend(2), payload=[lambda: None]), ThreadBackend
            )

    def test_payload_probe_leaves_other_resolutions_alone(self, recwarn):
        assert isinstance(get_backend("process", payload=[1, 2]), ProcessBackend)
        assert isinstance(get_backend("thread", payload=[lambda: None]), ThreadBackend)
        assert isinstance(get_backend("serial", payload=[lambda: None]), SerialBackend)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestParallelSolveBatch:
    """Parallel batches must match serial allocations bit-for-bit."""

    @pytest.fixture
    def instances(self):
        return [random_instance(5, 3, seed=seed) for seed in range(4)]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_matches_serial(self, instances, backend):
        requests = _requests(instances, ["oef-coop", "max-min"])
        serial = Gateway().solve_batch(requests)
        parallel = Gateway().solve_batch(requests, backend=backend, max_workers=2)
        assert [r.scheduler for r in serial] == [r.scheduler for r in parallel]
        for a, b in zip(serial, parallel):
            assert a.fingerprint == b.fingerprint
            np.testing.assert_allclose(
                a.allocation.matrix, b.allocation.matrix, atol=1e-9
            )

    def test_worker_results_merge_into_parent_cache(self, instances):
        gateway = Gateway()
        requests = _requests(instances, "oef-coop")
        first = gateway.solve_batch(requests, backend="thread")
        assert not any(result.from_cache for result in first)
        again = gateway.solve_batch(requests, backend="thread")
        assert all(result.from_cache for result in again)
        stats = gateway.cache_info()
        assert stats.hits == len(instances)
        assert stats.misses == len(instances)

    def test_parallel_batch_seeds_plain_solve(self, instances):
        gateway = Gateway()
        gateway.solve_batch(_requests(instances, "max-min"), backend="thread")
        assert gateway.solve(instances[0], "max-min").from_cache

    def test_duplicate_requests_solve_once(self, paper_instance):
        gateway = Gateway()
        results = gateway.solve_batch(
            _requests([paper_instance] * 4, "oef-coop"), backend="thread"
        )
        assert [result.from_cache for result in results] == [
            False,
            True,
            True,
            True,
        ]
        assert gateway.cache_info().misses == 1

    def test_use_cache_false_skips_cache(self, instances):
        gateway = Gateway()
        results = gateway.solve_batch(
            _requests(instances, "max-min", use_cache=False), backend="thread"
        )
        assert not any(result.from_cache for result in results)
        assert gateway.cache_info().entries == 0

    def test_serial_backend_name_equals_default_path(self, instances):
        requests = _requests(instances, "oef-coop")
        via_name = Gateway().solve_batch(requests, backend="serial")
        via_none = Gateway().solve_batch(requests)
        for a, b in zip(via_name, via_none):
            np.testing.assert_allclose(a.allocation.matrix, b.allocation.matrix)

    def test_unknown_scheduler_raises_before_fanout(self, instances):
        with pytest.raises(Exception, match="unknown scheduler"):
            Gateway().solve_batch(_requests(instances, "nope"), backend="thread")


class TestCapabilityFallback:
    """picklable/parallel_safe flags and pickle probes gate the lanes."""

    @pytest.fixture
    def gateway(self, test_registry):
        return Gateway(registry=test_registry)

    def test_unpicklable_option_degrades_to_threads(self, gateway, paper_instance):
        # a lambda option cannot cross a process boundary (nor be content-
        # hashed), so the batch must warn and still complete via threads
        with pytest.warns(RuntimeWarning, match="cannot cross a process"):
            results = gateway.solve_batch(
                _requests(
                    [paper_instance] * 2,
                    "equal-split-test",
                    options={"hook": lambda: None},
                    use_cache=False,
                ),
                backend="process",
                max_workers=2,
            )
        assert len(results) == 2
        expected = _EqualSplit().allocate(paper_instance).matrix
        np.testing.assert_allclose(results[0].allocation.matrix, expected)

    def test_picklable_false_scheduler_uses_threads(self, gateway, paper_instance):
        with pytest.warns(RuntimeWarning, match="cannot cross a process"):
            results = gateway.solve_batch(
                [Request(paper_instance, "thread-only-test")], backend="process"
            )
        assert results[0].allocation.total_efficiency() > 0

    def test_parallel_safe_false_scheduler_runs_serially(
        self, gateway, paper_instance
    ):
        with pytest.warns(RuntimeWarning, match="parallel_safe=False"):
            results = gateway.solve_batch(
                [Request(paper_instance, "serial-only-test")], backend="process"
            )
        assert results[0].allocation.total_efficiency() > 0

    def test_thread_backend_needs_no_warning(
        self, gateway, paper_instance, recwarn
    ):
        gateway.solve_batch(
            [Request(paper_instance, "thread-only-test")], backend="thread"
        )
        assert not [
            w for w in recwarn if issubclass(w.category, RuntimeWarning)
        ]

    def test_thread_unsafe_picklable_still_uses_process_pool(
        self, gateway, paper_instance, recwarn
    ):
        # process workers are isolated single-threaded processes, so a
        # parallel_safe=False scheduler that pickles needs no degradation
        results = gateway.solve_batch(
            _requests([paper_instance] * 2, "thread-unsafe-test"),
            backend="process",
            max_workers=2,
        )
        assert len(results) == 2
        assert not [
            w for w in recwarn if issubclass(w.category, RuntimeWarning)
        ]

    def test_thread_unsafe_scheduler_serial_under_thread_backend(
        self, gateway, paper_instance
    ):
        with pytest.warns(RuntimeWarning, match="parallel_safe=False"):
            results = gateway.solve_batch(
                [Request(paper_instance, "thread-unsafe-test")], backend="thread"
            )
        assert results[0].allocation.total_efficiency() > 0

    def test_mixed_batch_all_lanes_complete(self, gateway, paper_instance):
        # one batch spanning pool, thread-fallback, and serial lanes
        requests = [
            Request(paper_instance, "equal-split-test"),
            Request(paper_instance, "thread-only-test"),
            Request(paper_instance, "serial-only-test"),
        ]
        with pytest.warns(RuntimeWarning):
            results = gateway.solve_batch(requests, backend="process")
        assert [result.scheduler for result in results] == [
            "equal-split-test",
            "thread-only-test",
            "serial-only-test",
        ]
        assert all(
            result.allocation.total_efficiency() > 0 for result in results
        )

    def test_max_isolation_metadata(self, test_registry):
        assert test_registry.info("equal-split-test").max_isolation == "process"
        assert test_registry.info("thread-only-test").max_isolation == "thread"
        assert test_registry.info("serial-only-test").max_isolation == "serial"
        assert test_registry.info("thread-unsafe-test").max_isolation == "process"


class TestThreadSafety:
    """Regression: cache counters and LRU must survive a thread hammer."""

    def test_hammer_solve_from_8_threads(self):
        instances = [random_instance(4, 3, seed=seed) for seed in range(3)]
        gateway = Gateway()
        per_thread = 12
        num_threads = 8
        errors: list = []
        barrier = threading.Barrier(num_threads)

        def worker():
            try:
                barrier.wait()
                for index in range(per_thread):
                    instance = instances[index % len(instances)]
                    result = gateway.solve(instance, "max-min")
                    assert result.allocation.matrix.shape == (4, 3)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        stats = gateway.cache_info()
        # every call is accounted for exactly once; with unguarded
        # counters the racy `+= 1` loses increments
        assert stats.hits + stats.misses == per_thread * num_threads
        # at most one duplicate solve per (thread, instance) race window,
        # and the cache holds exactly the distinct keys
        assert stats.entries == len(instances)
        assert stats.misses >= len(instances)
        # cached results stay correct under contention
        for instance in instances:
            cached = gateway.solve(instance, "max-min")
            fresh = Gateway().solve(instance, "max-min")
            np.testing.assert_allclose(
                cached.allocation.matrix, fresh.allocation.matrix
            )

    def test_hammer_frontier_and_batch_together(self, paper_instance):
        gateway = Gateway()
        errors: list = []

        def solves():
            try:
                for _ in range(5):
                    gateway.solve_batch(
                        _requests([paper_instance], ["max-min", "oef-coop"]),
                        backend="thread",
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def frontiers():
            try:
                for _ in range(5):
                    gateway.frontier(paper_instance, [0.0, 1.0])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=t) for t in (solves, frontiers) * 3]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert gateway.cache_info().entries == 3  # 2 solves + 1 frontier grid


class TestParallelCompareAndFrontier:
    def test_compare_parallel_matches_serial(self, paper_instance):
        serial = Gateway().compare(paper_instance)
        parallel = Gateway().compare(
            paper_instance, backend="thread", max_workers=2
        )
        assert serial == parallel

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_frontier_parallel_matches_serial(self, paper_instance, backend):
        serial = Gateway().frontier(paper_instance, [0.0, 0.5, 1.0])
        parallel = Gateway().frontier(
            paper_instance, [0.0, 0.5, 1.0], backend=backend, max_workers=2
        )
        assert serial == parallel

    def test_frontier_execution_backend_shares_cache_key(self, paper_instance):
        gateway = Gateway()
        gateway.frontier(paper_instance, [0.0, 1.0], backend="thread")
        assert gateway.cache_info().misses == 1
        gateway.frontier(paper_instance, [0.0, 1.0])  # serial call: same key
        assert gateway.cache_info().hits == 1
