"""The fleet's warm region pool: reuse, rebuild triggers and failure modes."""

from __future__ import annotations

import os
import signal
import sys
import time
import types
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

import repro.fleet.simulator as simulator
import repro.parallel as parallel
from repro.exceptions import SimulationError
from repro.fleet import FleetSimulator, make_fleet_scenario
from repro.registry import REGISTRY, register_scheduler

PARENT = os.getpid()


def _fleet():
    return make_fleet_scenario("spot-preemption", seed=9, regions=3, rounds=4)


def _fingerprint(scheduler="oef-coop", backend="process", fleet=None):
    return (
        FleetSimulator(fleet or _fleet(), scheduler, backend=backend, rebalance=False)
        .run()
        .fingerprint()
    )


@pytest.fixture
def scheduler_names():
    """Scheduler names a test registers, unregistered afterwards."""
    names = []
    yield names
    for name in names:
        REGISTRY.unregister(name)


def _register(names, name, base):
    register_scheduler(type(f"_{base}Variant", (REGISTRY.info(base).factory,), {}),
                       name=name)
    names.append(name)


class TestRegistryGeneration:
    def test_register_and_unregister_bump_it(self, scheduler_names):
        before = REGISTRY.generation
        _register(scheduler_names, "warm-probe", "max-min")
        assert REGISTRY.generation == before + 1
        REGISTRY.unregister(scheduler_names.pop())
        assert REGISTRY.generation == before + 2

    def test_scheduler_registered_after_a_run_reaches_the_next(self, scheduler_names):
        _fingerprint()
        _register(scheduler_names, "warm-late", "max-min")
        assert _fingerprint("warm-late") == _fingerprint("warm-late", "serial")

    def test_reregistered_name_runs_its_new_class(self, scheduler_names):
        _register(scheduler_names, "warm-swap", "max-min")
        first = _fingerprint("warm-swap")
        REGISTRY.unregister(scheduler_names.pop())
        _register(scheduler_names, "warm-swap", "efficiency-max")
        second = _fingerprint("warm-swap")
        assert second == _fingerprint("warm-swap", "serial") != first


class _Killer:
    """Mixed into a scheduler: the first allocation in a worker kills it."""

    def allocate(self, instance):
        if os.getpid() != PARENT:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().allocate(instance)


class TestWorkerFailure:
    def test_dead_worker_is_a_typed_error_and_the_pool_recovers(self, scheduler_names):
        base = REGISTRY.info("max-min").factory
        register_scheduler(type("_KillerMaxMin", (_Killer, base), {}), name="warm-kill")
        scheduler_names.append("warm-kill")
        started = time.monotonic()
        with pytest.raises(SimulationError, match="died") as raised:
            _fingerprint("warm-kill")
        assert time.monotonic() - started < 30
        assert isinstance(raised.value.__cause__, BrokenProcessPool)
        assert parallel._shared_pool is None
        assert _fingerprint() == _fingerprint(backend="serial")

    def test_stale_task_is_retried_once_on_a_fresh_fork(self, monkeypatch):
        _fingerprint()  # the warm pool exists before the module does
        warm = parallel._shared_pool
        module = types.ModuleType("_fleet_injected_recipes")
        module.base = _fleet().builder
        exec("def build(fleet):\n    return base(fleet)\n", module.__dict__)
        monkeypatch.setitem(sys.modules, module.__name__, module)
        fleet = replace(_fleet(), builder=module.build)
        forks = []

        class CountingPool(parallel.ProcessPoolExecutor):
            def __init__(self, workers):
                forks.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        assert _fingerprint(fleet=fleet) == _fingerprint(fleet=fleet, backend="serial")
        assert len(forks) == 1  # one retry, on one fresh fork
        assert parallel._shared_pool is not warm

    def test_a_task_no_fork_can_take_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(simulator, "_run_pickled_region", _never_unpickles)
        with pytest.raises(SimulationError, match="unpickle"):
            _fingerprint()


def _never_unpickles(blob):
    return None


def _pid(item):
    return os.getpid()


class TestWarmMap:
    def test_a_smaller_map_reuses_a_larger_pool(self):
        parallel.warm_map(_pid, range(2), 2, 0)
        pool = parallel._shared_pool
        parallel.warm_map(_pid, range(1), 2, 0)
        parallel.warm_map(_pid, range(2), 1, 0)
        assert parallel._shared_pool is pool
        parallel.warm_map(_pid, range(2), 2, 1)  # a new generation re-forks
        assert parallel._shared_pool is not pool

    def test_a_none_that_survives_the_retry_is_returned(self):
        assert parallel.warm_map(_never_unpickles, [b"a", b"b"], 2, 0) == [None, None]


_original_run_region = simulator._run_region


def _run_region_as_max_min(task):
    return _original_run_region(replace(task, scheduler="max-min"))


class TestIsolation:
    """In file order: the first test's patch dies with its pool."""

    def test_a_patch_reaches_the_pool_forked_under_it(self, monkeypatch):
        clean = _fingerprint(backend="serial")
        monkeypatch.setattr(simulator, "_run_region", _run_region_as_max_min)
        patched = _fingerprint()
        assert patched == _fingerprint(backend="serial") != clean

    def test_a_later_test_never_sees_that_patch(self):
        assert parallel._shared_pool is None
        assert _fingerprint() == _fingerprint(backend="serial")
