"""The warm process pool every process fan-out shares: reuse, rebuild
triggers, the worker cap and failure modes, seen through fleet runs,
scenario sweeps and plain backend maps."""

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
from repro.parallel import get_backend
from repro.registry import REGISTRY, register_scheduler
from repro.scenarios import ScenarioRunner, make_scenario, scenario_sweep

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


class _CountingPool(parallel.ProcessPoolExecutor):
    forks: list = []
    submits: list = []

    def __init__(self, workers):
        self.forks.append(workers)
        super().__init__(workers)

    def submit(self, fn, /, *args, **kwargs):
        self.submits.append(self)
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def forks(monkeypatch):
    """Worker counts of the executors forked from here on; their submits
    are in ``_CountingPool.submits``."""
    monkeypatch.setattr(_CountingPool, "forks", [])
    monkeypatch.setattr(_CountingPool, "submits", [])
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _CountingPool)
    return _CountingPool.forks


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

    def test_stale_task_is_retried_once_on_a_fresh_fork(self, monkeypatch, forks):
        _fingerprint()  # the warm pool exists before the module does
        warm = parallel._shared_pool
        module = types.ModuleType("_fleet_injected_recipes")
        module.base = _fleet().builder
        exec("def build(fleet, index):\n    return base(fleet, index)\n", module.__dict__)
        monkeypatch.setitem(sys.modules, module.__name__, module)
        fleet = replace(_fleet(), builder=module.build)
        assert _fingerprint(fleet=fleet) == _fingerprint(fleet=fleet, backend="serial")
        assert forks == [2, 2]  # the warm pool, then one retry on one fresh fork
        assert parallel._shared_pool is not warm


def _pid(item):
    return os.getpid()


def _none(item):
    return None


def _interval(item):
    started = time.time()
    time.sleep(0.2)
    return started, time.time()


def _fail_first(item):
    """Item 0 raises at once; every other item marks its start and dwells."""
    index, marks = item
    if index == 0:
        raise ValueError("the first item fails")
    open(os.path.join(marks, str(index)), "w").close()
    time.sleep(0.2)
    return index


def _overlapping(intervals):
    ordered = sorted(intervals)
    return any(later[0] < earlier[1] for earlier, later in zip(ordered, ordered[1:]))


def _refuse_outside_the_parent():
    if os.getpid() != PARENT:
        raise AttributeError("no such object in this worker")
    return _Refusing()


class _Refusing:
    """Pickles fine; no worker unpickles it, however fresh."""

    def __reduce__(self):
        return _refuse_outside_the_parent, ()


class TestSharedPool:
    def test_a_smaller_map_reuses_a_larger_pool(self, scheduler_names):
        get_backend("process", 2).map(_pid, range(2))
        pool = parallel._shared_pool
        get_backend("process", 1).map(_pid, range(3))
        assert parallel._shared_pool is pool
        _register(scheduler_names, "warm-generation", "max-min")
        get_backend("process", 2).map(_pid, range(2))  # a new generation re-forks
        assert parallel._shared_pool is not pool

    def test_a_reused_larger_pool_keeps_the_worker_cap(self):
        get_backend("process", 2).map(_pid, range(2))
        pool = parallel._shared_pool
        intervals = get_backend("process", 1).map(_interval, range(3))
        assert parallel._shared_pool is pool
        assert not _overlapping(intervals)

    def test_work_that_returns_none_is_not_retried(self, forks):
        assert get_backend("process", 2).map(_none, range(3)) == [None] * 3
        assert forks == [2]

    def test_a_task_no_fork_can_take_raises_its_unpickling_error(self, forks):
        get_backend("process", 2).map(_pid, range(2))
        with pytest.raises(AttributeError, match="no such object"):
            get_backend("process", 2).map(_pid, [_Refusing(), _Refusing()])
        assert forks == [2, 2]  # the warm pool, then one fresh fork


class TestQueuedMap:
    """A map on an executor forked for its own worker count queues every
    item at once; the executor's queue, not the parent, holds the cap."""

    def test_every_item_is_submitted_before_the_first_result_is_read(self, forks):
        results = get_backend("process", 2).imap(_interval, range(6))
        first = next(results)
        assert forks == [2] and len(_CountingPool.submits) == 6
        assert len([first, *results]) == 6

    def test_a_queued_map_retries_each_stale_task_once(self, monkeypatch, forks):
        get_backend("process", 2).map(_pid, range(2))  # the warm pool
        module = types.ModuleType("_queued_injected_work")
        exec("def double(item):\n    return 2 * item\n", module.__dict__)
        monkeypatch.setitem(sys.modules, module.__name__, module)
        assert get_backend("process", 2).map(module.double, range(5)) == [0, 2, 4, 6, 8]
        assert forks == [2, 2]  # the warm pool, then one fresh fork for all retries
        pools = list(dict.fromkeys(_CountingPool.submits))
        # all five queued on the warm pool, each retried once on the fresh one
        assert [_CountingPool.submits.count(pool) for pool in pools] == [2 + 5, 5]

    def test_a_failing_queued_map_cancels_what_has_not_started(self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(16)]
        with pytest.raises(ValueError, match="first item"):
            get_backend("process", 2).map(_fail_first, items)
        parallel.shutdown_shared_pool()  # lets the started items finish
        started = len(list(tmp_path.iterdir()))
        assert started < len(items) // 2


def _sweep_rows(scheduler="oef-coop", backend="process"):
    recipe = make_scenario("steady", rounds=3)
    results = scenario_sweep(
        ScenarioRunner(recipe, scheduler), [1, 2], backend=backend
    )
    return [result.summary_row() for result in results]


class TestSweepsShareThePool:
    def test_two_process_sweeps_run_on_the_same_workers(self):
        first = _sweep_rows()
        pool = parallel._shared_pool
        pids = set(pool._processes)
        assert _sweep_rows() == first == _sweep_rows(backend="serial")
        assert parallel._shared_pool is pool and set(pool._processes) == pids

    def test_a_scheduler_registered_between_sweeps_runs_in_the_next(
        self, scheduler_names
    ):
        _sweep_rows()
        _register(scheduler_names, "warm-sweep-late", "max-min")
        assert _sweep_rows("warm-sweep-late") == _sweep_rows("warm-sweep-late", "serial")


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


def _timed_region(task):
    """Runs the region after a dwell, recording its wall interval beside
    the region's metrics file."""
    started = time.time()
    time.sleep(0.2)
    summary = _original_run_region(task)
    with open(f"{task.metrics_path}.{task.region}.interval", "w") as handle:
        handle.write(f"{started} {time.time()}")
    return summary


class TestFleetWorkerCap:
    def test_max_workers_holds_on_a_reused_larger_pool(self, monkeypatch, tmp_path):
        monkeypatch.setattr(simulator, "_run_region", _timed_region)
        for run, workers in enumerate((2, 1)):
            FleetSimulator(
                _fleet(), backend="process", max_workers=workers, rebalance=False,
                metrics_path=str(tmp_path / f"{run}.jsonl"),
            ).run()
        intervals = [
            tuple(map(float, path.read_text().split()))
            for path in tmp_path.glob("1.jsonl.*.interval")
        ]
        assert len(intervals) == 3
        assert len(parallel._shared_pool._processes) == 2  # reused, not re-forked
        assert not _overlapping(intervals)
