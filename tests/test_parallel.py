"""Execution backends, parallel batch solves, and graceful degradation."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import Allocation, Allocator, ProblemInstance, SpeedupMatrix
from repro.exceptions import ValidationError
from repro.parallel import BACKEND_NAMES, Backend, cpu_count, get_backend
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


class _Overlap:
    """Counts how many ``allocate`` calls are inside the scheduler at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.inside = 0
        self.peak = 0


class _Probe(Allocator):
    """Equal split that dwells inside ``allocate`` and records overlap."""

    name = "probe-test"
    overlap: _Overlap

    def allocate(self, instance: ProblemInstance) -> Allocation:
        overlap = self.overlap
        with overlap.lock:
            overlap.inside += 1
            overlap.peak = max(overlap.peak, overlap.inside)
        time.sleep(0.01)  # releases the GIL: other threads get their chance
        with overlap.lock:
            overlap.inside -= 1
        share = np.asarray(instance.capacities, dtype=float) / instance.num_users
        return Allocation(
            np.tile(share, (instance.num_users, 1)), instance, allocator_name=self.name
        )


def _probe_registry(parallel_safe: bool):
    """A private registry holding one fresh probe scheduler."""
    overlap = _Overlap()
    registry = SchedulerRegistry()
    register_scheduler(
        type("_ProbeVariant", (_Probe,), {"overlap": overlap}),
        name="probe-test",
        parallel_safe=parallel_safe,
        registry=registry,
    )
    return registry, overlap


class TestBackends:
    def test_serial_map_preserves_order(self):
        assert get_backend("serial").map(_square, range(5)) == [0, 1, 4, 9, 16]

    def test_thread_map_preserves_order(self):
        assert get_backend("thread", 4).map(_square, range(20)) == [
            value * value for value in range(20)
        ]

    def test_process_map_preserves_order(self):
        assert get_backend("process", 2).map(_square, range(8)) == [
            value * value for value in range(8)
        ]

    def test_get_backend_by_name(self):
        assert get_backend("serial") == Backend("serial", 1)
        assert get_backend("thread", 3) == Backend("thread", 3)
        assert get_backend("process", 2) == Backend("process", 2)
        assert get_backend("THREAD").name == "thread"
        assert get_backend("process").max_workers == cpu_count()

    def test_unknown_names_and_instances_rejected(self):
        with pytest.raises(ValidationError, match="unknown execution backend"):
            get_backend("gpu")
        with pytest.raises(ValidationError, match="unknown execution backend"):
            get_backend(Backend("thread", 2))

    def test_auto_serial_for_single_task(self):
        assert get_backend("auto", task_count=1) == Backend("serial", 1)
        assert get_backend(None, 1, task_count=8) == Backend("serial", 1)

    def test_auto_respects_core_count(self):
        resolved = get_backend("auto", task_count=8)
        if cpu_count() > 1:
            assert resolved == Backend("process", cpu_count())
        else:
            assert resolved == Backend("serial", 1)

    @pytest.mark.parametrize("name", ["serial", "thread", "process", "auto"])
    def test_bad_worker_count_rejected(self, name):
        with pytest.raises(ValidationError, match="max_workers"):
            get_backend(name, 0)

    def test_backend_names_constant(self):
        assert set(BACKEND_NAMES) == {"auto", "serial", "thread", "process"}

    def test_unpicklable_payload_degrades_process_to_threads(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            resolved = get_backend("process", 3, payload=[lambda: None])
        assert resolved == Backend("thread", 3)

    def test_payload_probe_leaves_other_resolutions_alone(self, recwarn):
        payload = {"a": np.arange(3)}
        assert get_backend("process", 2, payload=payload) == Backend("process", 2)
        assert get_backend("thread", payload=[lambda: None]).name == "thread"
        assert get_backend("serial", payload=[lambda: None]).name == "serial"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestParallelSolveBatch:
    """Parallel batches must match serial allocations bit-for-bit."""

    @pytest.fixture
    def instances(self):
        return [random_instance(5, 3, seed=seed) for seed in range(4)]

    @pytest.mark.parametrize("backend", ["thread", "auto"])
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
        # which duplicate leads is the coalesce stage's race, not the batch's
        assert [result.from_cache for result in results].count(False) == 1
        assert gateway.cache_info().misses == 1
        assert gateway.cache_info().hits == 3

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


class TestParallelSafeFlag:
    """``parallel_safe=False`` is enforced once, at the solver stage."""

    @staticmethod
    def _hammer(registry):
        """8 threads x 2 gateways over one registry, every solve a miss."""
        gateways = [Gateway(registry=registry) for _ in range(2)]
        instances = [random_instance(3, 2, seed=seed) for seed in range(16)]
        barrier = threading.Barrier(8)
        errors: list = []

        def worker(index):
            try:
                barrier.wait()
                for offset in range(2):
                    response = gateways[index % 2].solve(
                        instances[2 * index + offset], "probe-test"
                    )
                    assert response.disposition == "cold"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_unsafe_scheduler_never_overlaps_across_threads_and_gateways(self):
        registry, overlap = _probe_registry(parallel_safe=False)
        self._hammer(registry)
        assert overlap.peak == 1

    def test_safe_scheduler_overlaps(self):
        registry, overlap = _probe_registry(parallel_safe=True)
        self._hammer(registry)
        assert overlap.peak > 1

    def test_unsafe_scheduler_is_serialised_inside_a_threaded_batch(self):
        registry, overlap = _probe_registry(parallel_safe=False)
        instances = [random_instance(3, 2, seed=seed) for seed in range(8)]
        responses = Gateway(registry=registry).solve_batch(
            _requests(instances, "probe-test"), backend="thread", max_workers=4
        )
        assert all(response.disposition == "cold" for response in responses)
        assert overlap.peak == 1

    def test_lock_is_owned_by_the_registry(self):
        registry, _ = _probe_registry(parallel_safe=False)
        assert registry.solve_lock("probe-test") is registry.solve_lock("probe-test")
        registry.unregister("probe-test")
        safe, _ = _probe_registry(parallel_safe=True)
        with pytest.raises(KeyError):
            safe.solve_lock("probe-test")


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
