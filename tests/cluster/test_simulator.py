"""End-to-end cluster simulations: integration tests."""

import numpy as np
import pytest

from repro.baselines import MaxMinFairness
from repro.cluster import (
    ClusterSimulator,
    OEFScheduler,
    Placer,
    PlacementPolicy,
    SimulationConfig,
    SingleProfileScheduler,
    Tenant,
    make_job,
    paper_cluster,
)
from repro.cluster.gpu import Host
from repro.exceptions import ValidationError
from repro.scenarios import ScenarioRunner, make_scenario
from repro.workloads import TenantGenerator


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


def _simulator(tenants=None, scheduler=None, **config_overrides):
    topology = paper_cluster()
    tenants = tenants or _population()
    scheduler = scheduler or OEFScheduler("noncooperative")
    config = SimulationConfig(num_rounds=6, **config_overrides)
    return ClusterSimulator(topology, tenants, scheduler, config=config)


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
            placer=Placer(topology, policy=PlacementPolicy.naive()),
            config=SimulationConfig(num_rounds=3),
        )
        assert simulator.run().mean_total_actual() > 0

    def test_profiling_error_still_valid(self):
        metrics = _simulator(profiling_error=0.2).run()
        assert metrics.mean_total_actual() > 0

    def test_solver_seconds_tracked(self):
        metrics = _simulator().run()
        assert metrics.mean_solver_seconds() > 0


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

    def test_config_driven_failures_fall_back_cold(self):
        # a failure changes capacities -> new decision key -> cold solve
        warm = _simulator(device_failures={2: [0, 1]})
        warm.run()
        cold = _simulator(device_failures={2: [0, 1]}, warm_start=False)
        cold_metrics = cold.run()
        warm_metrics = warm.metrics
        for a, b in zip(warm_metrics.rounds, cold_metrics.rounds):
            assert a.estimated == b.estimated

    def test_memo_hits_hand_out_the_read_only_entry(self):
        simulator = _simulator()
        now = 0.0
        active_jobs = simulator._active_jobs(now)
        active = [simulator.tenants[name] for name in active_jobs]
        profiles = simulator._measure_profiles(now, active_jobs)

        def decide():
            return simulator._compute_decision(active, profiles, active_jobs)

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


class TestOneScanPerRound:
    """A round derives its active jobs and free devices once (PR 18)."""

    def test_scan_budget_of_a_steady_replay(self, monkeypatch):
        # deterministic perf guard: counts, not clocks
        calls = {"active_jobs": 0, "num_free": 0, "free_devices": 0}

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
        # jobs twice the horizon long, so every tenant is active every round
        runner = ScenarioRunner(
            make_scenario("steady", seed=1, rounds=3, duration_fraction=2.0)
        )
        simulator = runner.build_simulator()
        metrics = simulator.run()

        assert metrics.rounds_recorded == 3
        active_tenant_rounds = sum(len(r.estimated) for r in metrics.rounds)
        assert active_tenant_rounds == 3 * len(simulator.tenants)
        assert 0 < calls["active_jobs"] <= active_tenant_rounds
        assert calls["num_free"] == 0
        assert 0 < calls["free_devices"] <= 3 * len(simulator.topology.hosts)

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

    def test_sums_equal_the_placements_exactly(self, monkeypatch):
        placed = []
        place_round = Placer.place_round

        def recording(self, *args, **kwargs):
            placed.append(place_round(self, *args, **kwargs))
            return placed[-1]

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
