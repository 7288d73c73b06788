"""End-to-end cluster simulations: integration tests."""

import copy
import math
import operator
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.baselines import MaxMinFairness
from repro.cluster import (
    ClusterSimulator,
    ClusterTopology,
    Job,
    MetricsCollector,
    OEFScheduler,
    Placer,
    SimulationConfig,
    SingleProfileScheduler,
    StragglerModel,
    Tenant,
    make_fair_share_scheduler,
    make_job,
    paper_cluster,
)
from repro.cluster.gpu import Host
from repro.cluster.placement import STARVATION_BITS, JobTable, TableRound
from repro.cluster.profiler import ProfilingAgent
from repro.cluster.schedulers import SchedulerDecision
from repro.cluster.tenant import submit_order
from repro.core.virtual import VirtualUserExpansion
from repro.exceptions import ValidationError
from repro.fleet import FleetSimulator, fleet_scenario_names, resolve_fleet_scenario
from repro.fleet.library import make_fleet_scenario
from repro.fleet.scenario import QuotaUpdate
from repro.fleet.simulator import _region_runner
from repro.registry import REGISTRY
from repro.scenarios import ScenarioRunner, make_scenario, scenario_names
from repro.scenarios.events import (
    DeviceFailure,
    DeviceRepair,
    JobArrival,
    TenantArrival,
    TenantDeparture,
)
from repro.workloads import PhillyTraceConfig, PhillyTraceGenerator, TenantGenerator
from round_views import round_view


def _population(num_tenants=3, num_jobs=3, duration=1800.0, seed=0):
    generator = TenantGenerator(seed=seed)
    models = ["vgg16", "lstm", "resnet50", "transformer"]
    return [
        generator.make_tenant(
            f"t{i}", model_name=models[i % 4], num_jobs=num_jobs,
            duration_on_slowest=duration,
        )
        for i in range(num_tenants)
    ]


def _simulator(tenants=None, scheduler=None, events=(), **config_overrides):
    topology = paper_cluster()
    tenants = tenants or _population()
    scheduler = scheduler or OEFScheduler("noncooperative")
    config = SimulationConfig(num_rounds=6, **config_overrides)
    return ClusterSimulator(topology, tenants, scheduler, config=config, events=events)


class TestConfig:
    def test_bad_round_duration(self):
        with pytest.raises(ValidationError):
            SimulationConfig(round_duration=0.0)

    def test_bad_num_rounds(self):
        with pytest.raises(ValidationError):
            SimulationConfig(num_rounds=0)

    def test_duplicate_tenant_names_rejected(self):
        tenants = [Tenant(name="x"), Tenant(name="x")]
        with pytest.raises(ValidationError):
            _simulator(tenants=tenants)


class TestRunBasics:
    def test_rounds_recorded(self):
        metrics = _simulator().run()
        assert len(metrics.rounds) == 6

    def test_throughput_positive(self):
        metrics = _simulator().run()
        assert metrics.mean_total_actual() > 0
        assert metrics.mean_total_estimated() > 0

    def test_jobs_complete_and_jct_recorded(self):
        metrics = _simulator(
            tenants=_population(num_jobs=1, duration=200.0)
        ).run()
        assert len(metrics.completions) == 3
        assert all(record.jct > 0 for record in metrics.completions)

    def test_stop_when_idle(self):
        metrics = _simulator(
            tenants=_population(num_jobs=1, duration=100.0),
            stop_when_idle=True,
        ).run()
        assert len(metrics.rounds) < 6

    def test_no_stop_runs_all_rounds(self):
        metrics = _simulator(
            tenants=_population(num_jobs=1, duration=100.0),
            stop_when_idle=False,
        ).run()
        assert len(metrics.rounds) == 6

    def test_devices_never_oversubscribed(self):
        metrics = _simulator().run()
        for round_metrics in metrics.rounds:
            assert round_metrics.devices_used <= 24

    def test_completion_recorded_once(self):
        metrics = _simulator(
            tenants=_population(num_jobs=2, duration=150.0)
        ).run()
        ids = [record.job_id for record in metrics.completions]
        assert len(ids) == len(set(ids))


class TestTenantDynamics:
    def test_departure_removes_tenant(self):
        tenants = _population()
        tenants[0].departure_time = 600.0  # leaves after round 2
        metrics = _simulator(tenants=tenants, stop_when_idle=False).run()
        series = metrics.tenant_series(tenants[0].name)
        assert all(value == 0.0 for value in series[2:])
        assert any(value > 0.0 for value in series[:2])

    def test_late_arrival_waits(self):
        generator = TenantGenerator(seed=1)
        late = generator.make_tenant(
            "late", model_name="lstm", num_jobs=2,
            duration_on_slowest=3600.0, submit_time=600.0,
        )
        tenants = _population(num_tenants=2) + [late]
        metrics = _simulator(tenants=tenants, stop_when_idle=False).run()
        series = metrics.tenant_series("late")
        assert series[0] == 0.0 and series[1] == 0.0
        assert any(value > 0.0 for value in series[2:])

    def test_remaining_tenants_keep_equal_progress_after_exit(self):
        tenants = _population(num_tenants=4, num_jobs=6, duration=36000.0)
        tenants[3].departure_time = 900.0
        metrics = _simulator(tenants=tenants, stop_when_idle=False).run()
        last = metrics.rounds[-1]
        values = [last.estimated[t.name] for t in tenants[:3]]
        np.testing.assert_allclose(values, values[0], rtol=1e-4)


class TestMisreports:
    def test_misreport_does_not_pay_when_demand_is_ample(self):
        # SP is a fluid-allocation property; with enough jobs per tenant
        # (no demand cap), the simulated cheater must not gain either
        honest = _simulator(
            tenants=_population(num_jobs=12, duration=360000.0)
        ).run()
        cheating = _simulator(
            tenants=_population(num_jobs=12, duration=360000.0),
            misreports={"t0": np.array([1.0, 1.3, 1.3])},
        ).run()
        assert (
            cheating.mean_tenant_throughput("t0")
            <= honest.mean_tenant_throughput("t0") * 1.05
        )

    def test_misreport_inflates_reported_estimates(self):
        cheating = _simulator(
            tenants=_population(num_jobs=12, duration=360000.0),
            misreports={"t0": np.array([1.0, 1.3, 1.3])},
        ).run()
        honest = _simulator(
            tenants=_population(num_jobs=12, duration=360000.0)
        ).run()
        # the evaluator's (reported-unit) totals rise under inflated claims
        assert cheating.mean_total_estimated() >= honest.mean_total_estimated()


class TestSchedulerIntegration:
    def test_maxmin_baseline_runs(self):
        metrics = _simulator(
            scheduler=SingleProfileScheduler(MaxMinFairness())
        ).run()
        assert metrics.mean_total_actual() > 0

    def test_cooperative_oef_runs(self):
        metrics = _simulator(scheduler=OEFScheduler("cooperative")).run()
        assert metrics.mean_total_actual() > 0

    def test_naive_placer_configuration(self):
        topology = paper_cluster()
        simulator = ClusterSimulator(
            topology,
            _population(),
            SingleProfileScheduler(MaxMinFairness()),
            placer=Placer(topology, oef=False),
            config=SimulationConfig(num_rounds=3),
        )
        assert simulator.run().mean_total_actual() > 0

    def test_profiling_error_still_valid(self):
        metrics = _simulator(profiling_error=0.2).run()
        assert metrics.mean_total_actual() > 0

    def test_solver_seconds_tracked(self):
        metrics = _simulator().run()
        solver_seconds = [r.solver_seconds for r in metrics.rounds if r.estimated]
        assert solver_seconds and np.mean(solver_seconds) > 0


#: Every scheduler name (registry names, aliases, elastic modes) -> whether
#: it runs OEF's §6.1.3 stack (optimised placer + min-demand rule) or a
#: baseline's (naive placer, plain deviation rounding).
STACKS = {
    **dict.fromkeys(
        ("oef-coop", "cooperative", "coop", "oef-noncoop", "noncooperative",
         "noncoop", "oef-elastic-coop", "oef-elastic-noncoop"),
        True,
    ),
    **dict.fromkeys(
        ("drf", "dominant-resource", "efficiency-max", "efficiency",
         "gandiva-fair", "gandiva", "gavel", "max-min", "maxmin", "equal-share",
         "nash-welfare", "nash"),
        False,
    ),
}


#: The §6.1.3 options every round scheduler of a baseline must carry,
#: however it is built (canonical registry name -> allocator attributes).
EVALUATION_OPTIONS = {"gandiva-fair": {"trade_lot": 0.25}, "gavel": {"slack": 0.01}}


def _stack(scheduler, placer_oef):
    """What a replay runs: adapter, name, allocator options, stack, placer."""
    allocator = getattr(scheduler, "allocator", None)
    options = vars(allocator) if allocator is not None else {"mode": scheduler.mode}
    return type(scheduler), scheduler.name, options, scheduler.oef_stack, placer_oef


def _fleet_region_simulator(name):
    fleet = make_fleet_scenario("multiregion-failover", regions=2, rounds=2)
    simulator = FleetSimulator(fleet, name, rebalance=False)
    script = fleet.materialize()
    task = simulator._tasks(script, simulator._quota(script))[0]
    return _region_runner(task).build_simulator()


class TestSchedulerStack:
    def test_every_name_is_covered(self):
        names = {name for info in REGISTRY for name in (info.name, *info.aliases)}
        assert set(STACKS) == names | {"oef-elastic-coop", "oef-elastic-noncoop"}

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_every_entry_point_builds_the_factorys_stack(self, name):
        scheduler = make_fair_share_scheduler(name)
        expected = _stack(scheduler, STACKS[name])
        assert scheduler.oef_stack == STACKS[name]
        if not STACKS[name]:
            wanted = EVALUATION_OPTIONS.get(scheduler.name, {})
            assert vars(scheduler.allocator).items() >= wanted.items()
        simulators = {
            "simulator": ClusterSimulator(paper_cluster(), [], name),
            "scenario": ScenarioRunner(
                make_scenario("steady", rounds=1), name
            ).build_simulator(),
            "fleet region": _fleet_region_simulator(name),
        }
        for path, simulator in simulators.items():
            assert _stack(simulator.scheduler, simulator.placer.oef) == expected, path

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_the_scheduler_picks_placer_and_min_demand_rule(self, name, monkeypatch):
        oef = STACKS[name]
        simulator = ClusterSimulator(
            paper_cluster(), _population(), name, config=SimulationConfig(num_rounds=1)
        )
        prepare = simulator._rounder.prepare
        min_demands = []

        def spy(shares, capacities, demands=None):
            min_demands.append(demands)
            return prepare(shares, capacities, demands)

        monkeypatch.setattr(simulator._rounder, "prepare", spy)
        simulator.run()
        assert simulator.placer.oef == oef
        assert len(min_demands) == 1 and (min_demands[0] is not None) == oef

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_an_explicit_placer_wins(self, name):
        topology = paper_cluster()
        for oef in (True, False):
            placer = Placer(topology, oef=oef)
            simulator = ClusterSimulator(topology, _population(), name, placer=placer)
            assert simulator.placer is placer


def _sweep_factory(seed: int) -> ClusterSimulator:
    """Module-level so the process backend can pickle it."""
    return _simulator(tenants=_population(seed=seed))


class TestRunSweep:
    def test_seed_order_and_determinism(self):
        serial = ClusterSimulator.run_sweep(
            _sweep_factory, [0, 1, 2], backend="serial"
        )
        assert len(serial) == 3
        # distinct seeds produce distinct populations, same seed agrees
        repeat = ClusterSimulator.run_sweep(
            _sweep_factory, [0], backend="serial"
        )
        assert repeat[0].mean_total_actual() == pytest.approx(
            serial[0].mean_total_actual()
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_matches_serial(self, backend):
        seeds = [0, 1]
        serial = ClusterSimulator.run_sweep(_sweep_factory, seeds, backend="serial")
        parallel = ClusterSimulator.run_sweep(
            _sweep_factory, seeds, backend=backend, max_workers=2
        )
        for a, b in zip(serial, parallel):
            assert b.mean_total_actual() == pytest.approx(a.mean_total_actual())
            assert len(b.rounds) == len(a.rounds)
            assert len(b.completions) == len(a.completions)

    def test_unpicklable_factory_degrades_to_threads(self):
        local_factory = lambda seed: _simulator()  # noqa: E731
        with pytest.warns(RuntimeWarning, match="not picklable"):
            collectors = ClusterSimulator.run_sweep(
                local_factory, [0, 1], backend="process", max_workers=2
            )
        assert len(collectors) == 2
        assert all(c.mean_total_actual() > 0 for c in collectors)


class TestWarmStartEngine:
    """Round-decision memoization: hits, invalidation, and identity."""

    def test_steady_rounds_warm_start_by_default(self):
        simulator = _simulator()
        simulator.run()
        assert simulator.warm_stats.warm_hits > 0
        assert simulator.warm_stats.cold_solves >= 1
        assert simulator.warm_stats.hit_rate > 0

    def test_warm_start_false_always_solves_cold(self):
        simulator = _simulator(warm_start=False)
        simulator.run()
        assert simulator.warm_stats.warm_hits == 0
        assert simulator.warm_stats.cold_solves > 0

    def test_warm_and_cold_metrics_identical(self):
        warm = _simulator().run()
        cold = _simulator(warm_start=False).run()
        assert len(warm.rounds) == len(cold.rounds)
        for a, b in zip(warm.rounds, cold.rounds):
            assert a.estimated == b.estimated
            assert a.actual == b.actual
            assert a.starved_jobs == b.starved_jobs
        assert [c.job_id for c in warm.completions] == [
            c.job_id for c in cold.completions
        ]

    def test_warm_hit_reports_zero_solver_seconds(self):
        simulator = _simulator()
        metrics = simulator.run()
        hit_rounds = [r for r in metrics.rounds if r.solver_seconds == 0.0]
        assert len(hit_rounds) >= simulator.warm_stats.warm_hits

    def test_tenant_mutations_flush_the_memo(self):
        simulator = _simulator()
        simulator.run()
        assert simulator.warm_stats.invalidations == 0
        generator = TenantGenerator(seed=9)
        simulator.add_tenant(
            generator.make_tenant("late", num_jobs=1, duration_on_slowest=600.0)
        )
        assert simulator.warm_stats.invalidations == 1
        simulator.remove_tenant("late", now=0.0)
        # memo already empty: clearing nothing is not an invalidation
        assert simulator.warm_stats.invalidations == 1

    def test_device_failures_flush_the_memo(self):
        simulator = _simulator()
        simulator.run()
        simulator.fail_devices([0])
        assert simulator.warm_stats.invalidations == 1
        simulator.repair_devices([0])
        # memo was already empty after the failure flush
        assert simulator.warm_stats.invalidations == 1

    def test_failure_events_fall_back_cold(self):
        # a failure changes capacities -> new decision key -> cold solve
        warm = _simulator(events=[DeviceFailure(time=600.0, device_ids=(0, 1))])
        warm.run()
        cold = _simulator(
            events=[DeviceFailure(time=600.0, device_ids=(0, 1))], warm_start=False
        )
        cold_metrics = cold.run()
        warm_metrics = warm.metrics
        for a, b in zip(warm_metrics.rounds, cold_metrics.rounds):
            assert a.estimated == b.estimated

    def test_memo_hits_hand_out_the_read_only_entry(self):
        simulator = _simulator()
        now = 0.0
        active = list(simulator.tenants.values())
        active_jobs = {tenant.name: tenant.active_jobs(now) for tenant in active}
        profiles = simulator._measure_profiles(now, active_jobs)
        parts = simulator.scheduler.tenant_parts(active, profiles, active_jobs)

        def decide():
            return simulator._compute_decision(active, profiles, active_jobs, parts)

        cold = decide()
        hit = decide()
        assert simulator.warm_stats.cold_solves == 1
        assert simulator.warm_stats.warm_hits == 1
        assert hit.solver_seconds == 0.0 and cold.solver_seconds > 0.0
        before = {name: share.copy() for name, share in hit.tenant_shares.items()}
        for name, share in hit.tenant_shares.items():
            with pytest.raises(ValueError):
                share[0] = 99.0
            with pytest.raises(ValueError):
                share *= 2.0
            for by_type in hit.job_type_shares[name].values():
                with pytest.raises(ValueError):
                    by_type[0] = 99.0
        # the next hit is the same entry, unchanged; the cold answer holds
        # the entry's own arrays, frozen in place rather than copied
        again = decide()
        assert again is hit and simulator.warm_stats.warm_hits == 2
        for name, share in again.tenant_shares.items():
            assert share.tobytes() == before[name].tobytes()
            assert share is cold.tenant_shares[name]
        assert not any(share.flags.writeable for share in cold.tenant_shares.values())

    def test_decision_cache_is_bounded(self):
        simulator = _simulator()
        assert simulator.DECISION_CACHE_MAX == 64
        simulator.run()
        assert len(simulator._decision_cache) <= simulator.DECISION_CACHE_MAX

    def test_elastic_scheduler_yields_no_key(self):
        from repro.cluster.schedulers import make_fair_share_scheduler

        scheduler = make_fair_share_scheduler("oef-elastic-noncoop")
        assert scheduler.decision_key([], {}, np.zeros(2)) is None

    def test_decision_keys_cover_all_inputs(self):
        scheduler = OEFScheduler("noncooperative")
        tenants = _population(num_tenants=2)
        profiles = {
            t.name: {m: v.copy() for m, v in t.true_speedup_profile(0.0).items()}
            for t in tenants
        }
        caps = np.asarray([2.0, 3.0])
        key = scheduler.decision_key(tenants, profiles, caps)
        assert key == scheduler.decision_key(tenants, profiles, caps)
        # capacity change, profile change, weight change: all new keys
        assert key != scheduler.decision_key(tenants, profiles, caps * 2)
        bumped = {
            name: {
                m: np.concatenate([v[:1], v[1:] * 1.01])
                for m, v in by_model.items()
            }
            for name, by_model in profiles.items()
        }
        assert key != scheduler.decision_key(tenants, bumped, caps)
        tenants[0].weight = 3.0
        assert key != scheduler.decision_key(tenants, profiles, caps)

    def test_single_profile_key_tracks_dominant_job_type(self):
        scheduler = SingleProfileScheduler(MaxMinFairness())
        tenants = _population(num_tenants=1, num_jobs=2)
        profiles = {
            tenants[0].name: {
                m: v.copy()
                for m, v in tenants[0].true_speedup_profile(0.0).items()
            }
        }
        caps = np.asarray([2.0, 3.0])
        key = scheduler.decision_key(tenants, profiles, caps)
        assert key == scheduler.decision_key(tenants, profiles, caps)


def _event_tenant(event):
    """The tenant a scenario event names, if any."""
    tenant = getattr(event, "tenant", None)
    return getattr(event, "tenant_name", None) if tenant is None else tenant.name


class TestOneScanPerRound:
    """An epoch derives its active jobs once, a round its free devices once."""

    def test_scan_budget_of_a_steady_replay(self, monkeypatch):
        # deterministic perf guard: counts, not clocks
        calls = dict.fromkeys(
            ["active_jobs", "num_free", "free_devices", "capacities", "evaluate",
             "runnable_queue", "starve", "advance", "table", "place",
             "table_advance"],
            0,
        )

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Tenant, "active_jobs", counting("active_jobs", Tenant.active_jobs)
        )
        monkeypatch.setattr(
            Host, "free_devices", counting("free_devices", Host.free_devices)
        )
        monkeypatch.setattr(
            Host, "num_free", property(counting("num_free", Host.num_free.fget))
        )
        monkeypatch.setattr(
            StragglerModel, "evaluate", counting("evaluate", StragglerModel.evaluate)
        )
        monkeypatch.setattr(
            Tenant,
            "runnable_queue",
            counting("runnable_queue", Tenant.runnable_queue),
        )
        monkeypatch.setattr(Job, "starve", counting("starve", Job.starve))
        monkeypatch.setattr(Job, "advance", counting("advance", Job.advance))
        monkeypatch.setattr(JobTable, "__init__", counting("table", JobTable.__init__))
        monkeypatch.setattr(JobTable, "place", counting("place", JobTable.place))
        monkeypatch.setattr(
            JobTable, "advance", counting("table_advance", JobTable.advance)
        )
        # jobs twice the horizon long, so every tenant is active every round
        runner = ScenarioRunner(
            make_scenario("steady", seed=1, rounds=3, duration_fraction=2.0)
        )
        simulator = runner.build_simulator()
        monkeypatch.setattr(
            ClusterTopology,
            "capacities",
            counting("capacities", ClusterTopology.capacities),
        )
        metrics = simulator.run()

        assert metrics.rounds_recorded == 3
        active_tenant_rounds = sum(len(r.estimated) for r in metrics.rounds)
        assert active_tenant_rounds == 3 * len(simulator.tenants)
        # one active-set epoch: one job scan per tenant, one capacity read,
        # one job table
        assert calls["active_jobs"] == len(simulator.tenants)
        assert calls["capacities"] == 1
        assert calls["table"] == 1
        # each round is placed and advanced on the table's arrays: no
        # device list, run queue or per-job advance or starve call
        assert calls["place"] == calls["table_advance"] == 3
        assert calls["num_free"] == 0
        assert calls["free_devices"] == 0
        assert calls["runnable_queue"] == 0
        assert calls["advance"] == calls["starve"] == 0
        # every job needs one worker, so every placement is on one type: no
        # straggler evaluation
        tenants = simulator.tenants.values()
        assert {job.num_workers for tenant in tenants for job in tenant.jobs} == {1}
        assert calls["evaluate"] == 0

    def test_scan_budget_of_a_churn_replay(self, monkeypatch):
        # per epoch, only the tenants something touched are scanned, and the
        # placer walks the devices' health only after a failure or repair
        runner = ScenarioRunner(
            make_scenario(
                "tenant-churn", seed=3, rounds=24, resident_tenants=4,
                churn_tenants=8, jobs_per_tenant=2, lifetime_fraction=0.2,
            )
        )
        script = runner.scenario.materialize()
        simulator = runner.build_simulator(script)
        outages = [DeviceFailure(1500.0, (0, 1)), DeviceRepair(3300.0, (0, 1))]
        for event in outages:
            simulator.schedule_event(event)
        events = list(script.events) + outages
        epochs, walks = [], []
        active_jobs, check_health = Tenant.active_jobs, Placer.check_health
        monkeypatch.setattr(
            Tenant, "active_jobs",
            lambda self, now=None: epochs[-1][1].append(self.name) or active_jobs(self, now),
        )
        monkeypatch.setattr(
            Placer, "check_health",
            lambda self: walks.append(epochs[-1][0] if epochs else None) or check_health(self),
        )
        epoch = ClusterSimulator._epoch
        monkeypatch.setattr(
            ClusterSimulator, "_epoch",
            lambda self, now: epochs.append((now, [])) or epoch(self, now),
        )
        metrics = simulator.run()

        # the run's first epoch scans every tenant it starts with, once
        (start, first), *later = epochs
        assert start == 0.0 and sorted(first) == sorted(t.name for t in script.initial_tenants)
        finished = [(record.finish_time, record.tenant) for record in metrics.completions]
        tenants = simulator.tenants.values()
        scanned = 0
        for (before, _), (now, names) in zip(epochs, later):
            # a job that finished, an event's tenant, an arrival, departure
            # or submit time that came
            touched = {
                name for time, name in finished if before <= time < now
            } | {
                _event_tenant(event) for event in events if before < event.time <= now
            } | {
                tenant.name
                for tenant in tenants
                if any(
                    time is not None and before < time <= now
                    for time in (
                        tenant.arrival_time,
                        tenant.departure_time,
                        *[job.submit_time for job in tenant.jobs],
                    )
                )
            }
            assert len(names) == len(set(names)) and set(names) <= touched
            scanned += len(names)
        assert len(later) > 10 and scanned < 2 * len(later)
        # the table's health walk: the run's start, then the failure and the repair
        assert walks == [None, 1500.0, 3300.0]

    @staticmethod
    def _tenant(name, iterations):
        jobs = [
            make_job(job_id, name, "m", [1.0, 1.5, 2.0], total_iterations=total)
            for job_id, total in iterations.items()
        ]
        return Tenant(name=name, jobs=jobs)

    def test_job_finishing_mid_round_is_not_starved(self):
        # the round's active-job list was taken before the job finished;
        # it must not count (or mark) the job as starved afterwards
        short = self._tenant("short", {0: 100.0, 1: 1e9})
        simulator = _simulator(
            tenants=[short, self._tenant("long", {2: 1e9})], stop_when_idle=False
        )
        metrics = simulator.run()
        done = short.jobs[0]
        assert done.is_finished and done.finish_time < 300.0
        assert done.starvation_rounds == 0
        assert [r.starved_jobs for r in metrics.rounds] == [0] * 6
        # from round 1 on the tenant's list holds only the unfinished job
        assert metrics.rounds[0].devices_used == 3
        assert [r.devices_used for r in metrics.rounds[1:]] == [2] * 5
        assert [record.job_id for record in metrics.completions] == [0]

    def test_tenant_whose_last_job_finished_is_dropped_next_round(self):
        short = self._tenant("short", {0: 100.0})
        simulator = _simulator(
            tenants=[short, self._tenant("long", {1: 1e9})], stop_when_idle=False
        )
        metrics = simulator.run()
        assert set(metrics.rounds[0].estimated) == {"short", "long"}
        for round_metrics in metrics.rounds[1:]:
            assert set(round_metrics.estimated) == {"long"}
            assert set(round_metrics.actual) == {"long"}
        # ... and the rounder dropped its deviation state with it
        assert simulator._rounder.deviation("short").size == 0
        assert simulator._rounder.deviation("long").size == 3


def _epoch_per_round(patch):
    """Build every round's epoch from nothing, as a run's first: the loop
    before epochs."""
    drain = ClusterSimulator._drain_events

    def every_round(self, now):
        fired = drain(self, now)
        self._start_over()
        return fired

    patch.setattr(ClusterSimulator, "_drain_events", every_round)


@dataclass
class _DirectSubmit:
    """An event that hands a tenant a job behind every simulator hook's back."""

    time: float
    job: Job

    def apply(self, simulator, now):
        simulator.tenants[self.job.tenant].jobs.append(self.job)


def _long_job(job_id, tenant, model="extra", submit_time=0.0):
    return make_job(
        job_id, tenant, model, [1.0, 1.7, 2.9], total_iterations=1e9,
        submit_time=submit_time,
    )


def _same(jobs, others):
    return len(jobs) == len(others) and all(map(operator.is_, jobs, others))


def _assert_fresh_build(simulator, now):
    """The simulator's epoch state at ``now`` against one built from a scan
    of every tenant: the active jobs, the table's per-job lists and live
    starvation keys, the min demands, the exact profiles, the decision key,
    the stacked question rows, the capacities and the healthy devices."""
    active = {}
    for tenant in simulator.tenants.values():
        if tenant.departure_time is not None and now >= tenant.departure_time:
            continue
        jobs = [job for job in tenant.active_jobs() if job.submit_time <= now]
        if tenant.arrival_time <= now and jobs:
            active[tenant.name] = jobs
    states = simulator._active
    assert list(states) == list(active)
    assert all(_same(states[name].jobs, jobs) for name, jobs in active.items())

    table, topology = simulator._table, copy.deepcopy(simulator.topology)
    fresh = JobTable(Placer(topology, oef=simulator.placer.oef), {})
    fresh.update(
        {name: submit_order(jobs) for name, jobs in active.items()}, simulator._rank
    )
    assert table.names == fresh.names and _same(table.jobs, fresh.jobs)
    for column in ("_ids", "_bind_keys", "_codes", "_blocks", "_rates", "_tenants", "_groups"):
        assert getattr(table, column) == getattr(fresh, column)
    keys = [
        (simulator._rank[job.tenant] << STARVATION_BITS) - job.starvation_rounds
        for job in table.jobs
    ]
    assert list(table._queue_key) == list(fresh._queue_key) == keys
    healthy = [
        [[device.device_id for device in host] for host in hosts]
        for hosts in simulator.placer._healthy
    ]
    assert healthy == [
        [[device.device_id for device in host] for host in hosts]
        for hosts in fresh.placer._healthy
    ]
    capacities = topology.capacities()
    assert simulator._capacities.tobytes() == capacities.tobytes()

    tenants = [simulator.tenants[name] for name in active]
    scheduler = simulator.scheduler
    if scheduler.oef_stack:
        assert simulator._min_demands == {
            tenant.name: tenant.min_worker_demand(now, active[tenant.name])
            for tenant in tenants
        }
    profiles = {
        tenant.name: ProfilingAgent().profile_tenant(tenant, now, active[tenant.name])
        for tenant in tenants
    }
    for name, profile in profiles.items():
        kept = states[name].profile
        assert list(kept) == list(profile)
        assert all(kept[model].tobytes() == profile[model].tobytes() for model in profile)
    parts = [states[name].part for name in active]
    assert scheduler.decision_key(
        tenants, profiles, capacities, active_jobs=active, parts=parts
    ) == scheduler.decision_key(tenants, profiles, capacities, active_jobs=active)
    if tenants and isinstance(scheduler, OEFScheduler):
        kept = VirtualUserExpansion([rows for _key, rows in parts])
        fresh_rows = VirtualUserExpansion(
            [(t.name, t.weight, sorted(profiles[t.name].items())) for t in tenants]
        )
        assert kept.expanded_matrix().users == fresh_rows.expanded_matrix().users
        for got, want in (
            (kept.expanded_matrix().values, fresh_rows.expanded_matrix().values),
            (kept.weights, fresh_rows.weights),
        ):
            assert got.tobytes() == want.tobytes()


def _extra_tenant(name="t9"):
    generator = TenantGenerator(seed=7)
    return generator.make_tenant(
        name, model_name="resnet50", num_jobs=2, duration_on_slowest=36000.0
    )


def _hooked(mutations):
    """A steady build whose record path calls simulator hooks: ``mutations``
    maps a round index to a call on the simulator."""

    def build(make, scheduler):
        metrics = MetricsCollector()
        simulator = make(_population(duration=36000.0), scheduler=scheduler, metrics=metrics)

        def mutate(record):
            if record.round_index in mutations:
                mutations[record.round_index](simulator, record.time)

        metrics.on_round = mutate
        return simulator

    return build


def _evented(*events):
    return lambda make, scheduler: make(
        _population(duration=36000.0), events=list(events), scheduler=scheduler
    )


def _timed(change):
    def build(make, scheduler):
        tenants = _population(duration=36000.0)
        change(tenants)
        return make(tenants, scheduler=scheduler, stop_when_idle=False)

    return build


def _arrive_and_leave(tenants):
    tenants[0].arrival_time = 1000.0
    tenants[2].departure_time = 750.0


#: epoch-ending reason -> (build(make, scheduler), a round start it ends an epoch at)
_REASONS = {
    "event-tenant-arrival": (_evented(TenantArrival(700.0, _extra_tenant())), 900.0),
    "event-tenant-departure": (_evented(TenantDeparture(700.0, "t1")), 900.0),
    "event-job-arrival": (_evented(JobArrival(700.0, "t0", _long_job(99, "t0"))), 900.0),
    "event-device-failure": (_evented(DeviceFailure(600.0, (0, 1))), 600.0),
    "event-device-repair": (
        _evented(DeviceFailure(600.0, (0, 1)), DeviceRepair(1500.0, (0, 1))), 1500.0,
    ),
    "event-quota-update": (
        _evented(QuotaUpdate(700.0, (("t0", 2.0), ("t2", 0.5)))), 900.0,
    ),
    "hook-add-tenant": (
        _hooked({2: lambda simulator, now: simulator.add_tenant(_extra_tenant())}), 900.0,
    ),
    "hook-remove-tenant": (
        _hooked({2: lambda simulator, now: simulator.remove_tenant("t1", now)}), 900.0,
    ),
    "hook-fail-devices": (
        _hooked({2: lambda simulator, now: simulator.fail_devices([0, 5])}), 900.0,
    ),
    "hook-repair-devices": (
        _hooked({
            1: lambda simulator, now: simulator.fail_devices([0, 5]),
            3: lambda simulator, now: simulator.repair_devices([0, 5]),
        }),
        1200.0,
    ),
    "hook-set-tenant-weight": (
        _hooked({2: lambda simulator, now: simulator.set_tenant_weight("t0", 3.0)}), 900.0,
    ),
    "hook-add-job": (
        _hooked({2: lambda simulator, now: simulator.add_job("t1", _long_job(99, "t1"))}),
        900.0,
    ),
    "submit-time": (
        _timed(lambda tenants: tenants[1].add_job(_long_job(99, "t1", submit_time=1000.0))),
        1200.0,
    ),
    "arrival-and-departure-time": (_timed(_arrive_and_leave), 900.0),
    "job-finish": (
        lambda make, scheduler: make(
            _population(num_jobs=2, duration=900.0), scheduler=scheduler
        ),
        900.0,
    ),
    "foreign-event": (_evented(_DirectSubmit(700.0, _long_job(99, "t0"))), 900.0),
}


class TestRoundEpoch:
    """A round re-asks its question only when its active-set epoch ends.

    Each case runs one trigger twice — with epochs, and with every
    round's epoch built from nothing — and asserts equal round records
    (``solver_seconds`` as solved-or-not), completions and memo counts,
    plus the round starts at which the epoch run began an epoch.
    """

    @staticmethod
    def _replay(build, monkeypatch, every_round):
        scans = []
        with monkeypatch.context() as patch:
            if every_round:
                _epoch_per_round(patch)
            epoch = ClusterSimulator._epoch
            patch.setattr(
                ClusterSimulator,
                "_epoch",
                lambda self, now: scans.append(now) or epoch(self, now),
            )
            simulator = build()
            metrics = simulator.run()
        rounds = [
            replace(record, solver_seconds=record.solver_seconds > 0)
            for record in metrics.rounds
        ]
        stats = simulator.warm_stats
        return (rounds, metrics.completions, stats.warm_hits, stats.cold_solves), scans

    def _scans(self, build, monkeypatch):
        """Where the epoch run scanned, once it matched the per-round run."""
        epochs, scans = self._replay(build, monkeypatch, every_round=False)
        per_round, round_scans = self._replay(build, monkeypatch, every_round=True)
        assert epochs == per_round
        assert round_scans[: len(epochs[0])] == [record.time for record in epochs[0]]
        return scans

    @staticmethod
    def _build(tenants, events=(), scheduler=None, metrics=None, **config):
        config.setdefault("num_rounds", 8)
        return ClusterSimulator(
            paper_cluster(),
            tenants,
            scheduler or OEFScheduler("noncooperative"),
            config=SimulationConfig(**config),
            events=events,
            metrics=metrics,
        )

    def _steady(self, **config):
        return lambda: self._build(_population(duration=36000.0), **config)

    def test_a_steady_run_is_one_epoch(self, monkeypatch):
        assert self._scans(self._steady(), monkeypatch) == [0.0]
        (_rounds, _done, hits, solves), _ = self._replay(
            self._steady(), monkeypatch, every_round=False
        )
        assert (hits, solves) == (7, 1)

    def test_an_event(self, monkeypatch):
        def build():
            return self._build(
                _population(duration=36000.0),
                events=[_DirectSubmit(700.0, _long_job(99, "t0"))],
            )

        assert self._scans(build, monkeypatch) == [0.0, 900.0]

    def test_a_completion(self, monkeypatch):
        build = lambda: self._build(_population(num_jobs=2, duration=900.0))
        scans = self._scans(build, monkeypatch)
        assert scans[0] == 0.0 and 1 < len(scans)
        _records, done, _hits, _solves = self._replay(build, monkeypatch, False)[0]
        assert {record.finish_time // 300 * 300 + 300 for record in done} >= set(
            scans[1:]
        )

    def test_a_bare_arrival_crossing(self, monkeypatch):
        # Fig. 9's tenants arrive by arrival_time alone, with no event
        config = PhillyTraceConfig(
            num_tenants=5, jobs_per_tenant_mean=2.0, window_seconds=2400.0,
            contention=40.0, seed=3,
        )

        def build():
            tenants = PhillyTraceGenerator(config=config).generate()
            return self._build(tenants, num_rounds=10, stop_when_idle=False)

        arrivals = {tenant.arrival_time for tenant in build().tenants.values()}
        due = {math.ceil(time / 300.0) * 300.0 for time in arrivals if time < 3000.0}
        scans = self._scans(build, monkeypatch)
        assert len(due) > 2 and due <= set(scans)

    def test_a_bare_submit_crossing(self, monkeypatch):
        def build():
            tenants = _population(duration=36000.0)
            tenants[1].add_job(_long_job(99, "t1", submit_time=1000.0))
            return self._build(tenants)

        assert self._scans(build, monkeypatch) == [0.0, 1200.0]

    def test_a_departure(self, monkeypatch):
        def build():
            tenants = _population(duration=36000.0)
            tenants[2].departure_time = 750.0
            return self._build(tenants, stop_when_idle=False)

        assert self._scans(build, monkeypatch) == [0.0, 900.0]

    def test_a_departure_brought_forward(self, monkeypatch):
        # the departure time the tenant had is no epoch end any more
        def build():
            tenants = _population(duration=36000.0)
            tenants[2].departure_time = 1950.0
            return self._build(
                tenants, events=[TenantDeparture(700.0, "t2")], stop_when_idle=False
            )

        assert self._scans(build, monkeypatch) == [0.0, 900.0]

    def test_a_failure_and_repair(self, monkeypatch):
        def build():
            return self._build(
                _population(duration=36000.0),
                events=[
                    DeviceFailure(time=600.0, device_ids=(0, 1)),
                    DeviceRepair(time=1500.0, device_ids=(0, 1)),
                ],
            )

        assert self._scans(build, monkeypatch) == [0.0, 600.0, 1500.0]

    def test_set_tenant_weight_and_add_job(self, monkeypatch):
        # the hooks run from the record path, outside any event
        def build():
            metrics = MetricsCollector()
            simulator = self._build(_population(duration=36000.0), metrics=metrics)

            def mutate(record):
                if record.round_index == 2:
                    simulator.set_tenant_weight("t0", 3.0)
                if record.round_index == 4:
                    simulator.add_job("t1", _long_job(99, "t1"))

            metrics.on_round = mutate
            return simulator

        assert self._scans(build, monkeypatch) == [0.0, 900.0, 1500.0]

    def test_run_starts_an_epoch(self, monkeypatch):
        def build():
            simulator = self._build(_population(duration=36000.0), num_rounds=3)
            simulator.run()
            simulator.tenants["t0"].jobs.append(_long_job(99, "t0"))
            return simulator

        assert self._scans(build, monkeypatch) == [0.0, 0.0]

    def test_noisy_profiling(self, monkeypatch):
        build = self._steady(profiling_error=0.1, profiling_seed=4)
        assert self._scans(build, monkeypatch) == [0.0]
        (_rounds, _done, hits, solves), _ = self._replay(build, monkeypatch, False)
        assert (hits, solves) == (0, 8)

    def test_warm_start_off(self, monkeypatch):
        build = self._steady(warm_start=False)
        assert self._scans(build, monkeypatch) == [0.0]

    def test_a_scheduler_without_a_key(self, monkeypatch):
        def build():
            return self._build(
                _population(duration=36000.0),
                scheduler=make_fair_share_scheduler("oef-elastic-noncoop"),
            )

        assert self._scans(build, monkeypatch) == [0.0]
        (_rounds, _done, hits, solves), _ = self._replay(build, monkeypatch, False)
        assert (hits, solves) == (0, 8)

    @pytest.mark.parametrize("scheduler", ["oef-noncoop", "gavel"])
    @pytest.mark.parametrize("reason", sorted(_REASONS))
    def test_the_carried_state_is_a_fresh_build(self, monkeypatch, reason, scheduler):
        """After every epoch, what each tenant carried equals a build from
        nothing; the epoch ``reason`` ends comes where it should."""
        build, due = _REASONS[reason]
        checked = []

        def epoch(self, now):
            original(self, now)
            _assert_fresh_build(self, now)
            checked.append(now)

        original = ClusterSimulator._epoch
        monkeypatch.setattr(ClusterSimulator, "_epoch", epoch)
        simulator = build(self._build, make_fair_share_scheduler(scheduler))
        simulator.run()
        assert checked[0] == 0.0 and due in checked


#: every cluster-family library replay the differential grid covers
EPOCH_REPLAYS = [
    (name, scheduler, seed)
    for name in scenario_names()
    for scheduler in ("oef-coop", "oef-noncoop", "gavel")
    for seed in (1, 4)
]
#: every library fleet on every backend
EPOCH_FLEETS = [
    (name, backend)
    for name in fleet_scenario_names()
    for backend in ("serial", "thread", "process")
]


def _check_replay(monkeypatch, name, scheduler, seed):
    scenario = make_scenario(name, seed=seed, rounds=12)
    results = []
    for every_round in (False, True):
        with monkeypatch.context() as patch:
            if every_round:
                _epoch_per_round(patch)
            result = ScenarioRunner(scenario, scheduler).run()
        results.append((result.fingerprint(), result.warm_hits, result.cold_solves))
    assert results[0] == results[1]


def _check_fleet(monkeypatch, tmp_path, name, backend):
    def fingerprint(backend, label):
        path = str(tmp_path / f"{label}.jsonl")
        fleet = resolve_fleet_scenario(name, regions=3, rounds=12, seed=3)
        result = FleetSimulator(fleet, backend=backend, metrics_path=path).run()
        return result.fingerprint()

    # the patch reaches this process only, so the reference runs serially
    with monkeypatch.context() as patch:
        _epoch_per_round(patch)
        per_round = fingerprint("serial", "per-round")
    assert fingerprint(backend, "epochs") == per_round


class TestEpochDifferential:
    """Epochs on vs an epoch per round: fingerprints and memo counts equal.

    Tier-1 runs a sample; ``pytest -m differential`` runs every library
    replay (5 scenarios x 3 schedulers x 2 seeds) and all 12 fleet runs.
    """

    @pytest.mark.parametrize("name, scheduler, seed", EPOCH_REPLAYS[::5])
    def test_replay_sample(self, monkeypatch, name, scheduler, seed):
        _check_replay(monkeypatch, name, scheduler, seed)

    @pytest.mark.parametrize("name, backend", EPOCH_FLEETS[::4])
    def test_fleet_sample(self, monkeypatch, tmp_path, name, backend):
        _check_fleet(monkeypatch, tmp_path, name, backend)

    @pytest.mark.differential
    @pytest.mark.parametrize("name, scheduler, seed", EPOCH_REPLAYS)
    def test_every_replay(self, monkeypatch, name, scheduler, seed):
        _check_replay(monkeypatch, name, scheduler, seed)

    @pytest.mark.differential
    @pytest.mark.parametrize("name, backend", EPOCH_FLEETS)
    def test_every_fleet(self, monkeypatch, tmp_path, name, backend):
        _check_fleet(monkeypatch, tmp_path, name, backend)


class TestDeliveredThroughput:
    """The advance pass sums each job's delivered speedup units."""

    def _lone_tenant_round(self):
        # a lone tenant is granted the whole cluster: both jobs land on
        # rank 2 (speedup 2.0) on one host each
        jobs = [
            make_job(0, "t", "m", [1.0, 1.5, 2.0], num_workers=2, total_iterations=1e9),
            make_job(1, "t", "m", [1.0, 1.5, 2.0], num_workers=1, total_iterations=1e9),
        ]
        simulator = ClusterSimulator(
            paper_cluster(),
            [Tenant(name="t", jobs=jobs)],
            OEFScheduler("noncooperative"),
            config=SimulationConfig(num_rounds=1),
        )
        return simulator.run().rounds[0]

    def test_tenant_throughput_aggregation(self):
        # 3 workers on rank-2 GPUs at speedup 2.0
        assert self._lone_tenant_round().actual["t"] == pytest.approx(6.0)

    def test_model_throughput_keyed_by_pair(self):
        assert self._lone_tenant_round().actual_by_model == pytest.approx(
            {("t", "m"): 6.0}
        )

    def test_a_job_runs_at_its_placements_rate_to_the_bit(self):
        # 0.1 × 3 × 0.7 rounds differently from 0.1 × (3 × 0.7): the
        # advance pass must multiply in iterations_per_second's order
        job = make_job(0, "t", "m", [0.1, 0.2, 0.3], total_iterations=1e9)
        simulator = ClusterSimulator(
            paper_cluster(),
            [Tenant(name="t", jobs=[job])],
            OEFScheduler("noncooperative"),
            config=SimulationConfig(num_rounds=1),
        )
        # a round of the job's table, and its view as one job's placement
        table = JobTable(simulator.placer, {"t": [job]})
        placed = TableRound(
            [0], [3], [{0: 3}], [simulator.topology.devices[:3]], [2], [0.1], [0],
            [0.7], 0, np.zeros(0, dtype=int),
        )
        (placement,) = round_view(table, placed).placements
        simulator._table = table
        simulator._advance(0, 0.0, placed, SchedulerDecision({}, {"t": 1.0}))
        rate = placement.iterations_per_second
        assert simulator.metrics.rounds[0].actual == {"t": rate / 0.1}
        assert job.done_iterations == rate * 300.0

    def test_sums_equal_the_placements_exactly(self, monkeypatch):
        placed = []
        place_round = Placer.place_round

        def recording(self, rounding, table):
            round_placed = place_round(self, rounding, table)
            placed.append(round_view(table, round_placed))
            return round_placed

        monkeypatch.setattr(Placer, "place_round", recording)
        metrics = _simulator(_population(num_tenants=4, num_jobs=3)).run()
        assert len(placed) == len(metrics.rounds) > 1
        for placement, record in zip(placed, metrics.rounds):
            by_tenant, by_model = {}, {}
            for job_placement in placement.placements:
                job = job_placement.job
                delivered = job_placement.iterations_per_second / float(
                    job.true_throughput[0]
                )
                key = (job.tenant, job.model_name)
                by_tenant[job.tenant] = by_tenant.get(job.tenant, 0.0) + delivered
                by_model[key] = by_model.get(key, 0.0) + delivered
            assert record.actual == by_tenant
            assert record.actual_by_model == by_model
