"""Fleet scenarios, the quota rebalancer, and the fleet simulator."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.fleet import (
    FleetSimulator,
    QuotaUpdate,
    compute_quota_schedule,
    fleet_scenario_names,
    make_fleet_scenario,
    region_scenario,
    resolve_fleet_scenario,
    run_fleet,
    shard_of,
    sharded_fleet,
)
from repro.scenarios import ScenarioRunner, make_scenario
from repro.scenarios.events import (
    DeviceFailure,
    DeviceRepair,
    JobArrival,
    TenantArrival,
    TenantDeparture,
)


class TestFleetScenarios:
    def test_registry_has_the_four_families(self):
        assert set(fleet_scenario_names()) == {
            "spot-preemption",
            "hetero-generations",
            "multiregion-failover",
            "tenant-swarm",
        }

    def test_materialization_is_deterministic(self):
        fleet = make_fleet_scenario("spot-preemption", seed=5, regions=3, rounds=8)
        first, second = fleet.materialize(), fleet.materialize()
        for a, b in zip(first.regions, second.regions):
            assert a.name == b.name
            assert a.script.fingerprint() == b.script.fingerprint()

    def test_unknown_fleet_parameters_fail_loudly(self):
        with pytest.raises(ValidationError, match="unknown"):
            make_fleet_scenario("tenant-swarm", typo_knob=3)

    def test_unknown_fleet_name_suggests(self):
        with pytest.raises(ValidationError, match="spot-preemption"):
            make_fleet_scenario("spot-preemptio")

    def test_tenant_names_are_fleet_unique(self):
        script = make_fleet_scenario(
            "hetero-generations", regions=4, rounds=6
        ).materialize()
        names = [
            tenant.name
            for region in script.regions
            for tenant in region.script.initial_tenants
        ]
        assert len(names) == len(set(names))


class TestRegionBoundaries:
    """Device failures and tenant churn stay inside their region's shard."""

    def test_failover_device_failure_is_region0_only(self):
        script = make_fleet_scenario(
            "multiregion-failover", regions=4, rounds=8
        ).materialize()
        for index, region in enumerate(script.regions):
            failures = [
                e for e in region.script.events if isinstance(e, DeviceFailure)
            ]
            departures = [
                e for e in region.script.events if isinstance(e, TenantDeparture)
            ]
            if index == 0:
                assert failures and departures
            else:
                assert not failures and not departures

    def test_failover_refugees_rehome_in_surviving_regions(self):
        script = make_fleet_scenario(
            "multiregion-failover", regions=4, rounds=8
        ).materialize()
        refugees = [
            event.tenant.name
            for region in script.regions[1:]
            for event in region.script.events
            if isinstance(event, TenantArrival)
        ]
        assert refugees, "displaced region0 tenants must re-arrive elsewhere"
        assert all(name.endswith("-failover") for name in refugees)
        assert not any(
            isinstance(e, TenantArrival) for e in script.regions[0].script.events
        )

    def test_spot_preemption_repairs_everything_it_fails(self):
        script = make_fleet_scenario(
            "spot-preemption", regions=3, rounds=8, seed=2
        ).materialize()
        for region in script.regions:
            failed = [
                e.device_ids
                for e in region.script.events
                if isinstance(e, DeviceFailure)
            ]
            repaired = [
                e.device_ids
                for e in region.script.events
                if isinstance(e, DeviceRepair)
            ]
            assert failed and sorted(failed) == sorted(repaired)

    def test_device_failure_shrinks_only_its_own_region(self):
        fleet = make_fleet_scenario("multiregion-failover", regions=2, rounds=8)
        result = FleetSimulator(
            fleet, backend="serial", rebalance=False
        ).run()
        by_name = {region.region: region for region in result.regions}
        # region0 stops early (its tenants depart with the failure);
        # region1 runs its full horizon unaffected
        assert by_name["region0"].rounds < by_name["region1"].rounds

    def test_sharded_churn_routes_tenants_consistently(self):
        base = make_scenario("tenant-churn", seed=4, rounds=8)
        fleet = sharded_fleet(base, 3)
        script = fleet.materialize()
        seen = set()
        for index, region in enumerate(script.regions):
            for tenant in region.script.initial_tenants:
                assert shard_of(tenant.name, 3) == index
                seen.add(tenant.name)
            for event in region.script.events:
                if isinstance(event, TenantArrival):
                    assert shard_of(event.tenant.name, 3) == index
                    seen.add(event.tenant.name)
                elif isinstance(event, (TenantDeparture, JobArrival)):
                    name = event.tenant_name
                    assert shard_of(name, 3) == index
        base_names = {t.name for t in base.materialize().initial_tenants} | {
            e.tenant.name
            for e in base.materialize().events
            if isinstance(e, TenantArrival)
        }
        assert seen == base_names  # nothing lost, nothing duplicated


class TestQuotaEvents:
    def test_set_tenant_weight_validates(self):
        runner = ScenarioRunner(make_scenario("steady", rounds=4))
        simulator = runner.build_simulator()
        simulator.set_tenant_weight("tenant1", 2.5)
        assert simulator.tenants["tenant1"].weight == 2.5
        with pytest.raises(ValidationError, match="unknown tenant"):
            simulator.set_tenant_weight("nobody", 1.0)
        with pytest.raises(ValidationError, match="positive"):
            simulator.set_tenant_weight("tenant1", 0.0)

    def test_quota_update_skips_departed_tenants(self):
        runner = ScenarioRunner(make_scenario("steady", rounds=4))
        simulator = runner.build_simulator()
        event = QuotaUpdate(
            time=0.0, weights=(("tenant1", 3.0), ("ghost", 9.0))
        )
        event.apply(simulator, 0.0)
        assert simulator.tenants["tenant1"].weight == 3.0
        assert "ghost" not in simulator.tenants

    def test_quota_events_splice_into_region_timeline(self):
        fleet = make_fleet_scenario("hetero-generations", regions=2, rounds=8)
        quota = ((600.0, (("r0t1", 1.5),)),)
        scenario = region_scenario(fleet, 0, "region0", quota)
        script = scenario.materialize()
        updates = [e for e in script.events if isinstance(e, QuotaUpdate)]
        assert len(updates) == 1
        assert updates[0].time == 600.0
        times = [e.time for e in script.events]
        assert times == sorted(times)


class TestRebalance:
    def test_schedule_covers_window_boundaries(self):
        fleet = make_fleet_scenario("hetero-generations", regions=2, rounds=12)
        schedule = compute_quota_schedule(fleet, window_rounds=4)
        assert [w.time for w in schedule.windows] == [1200.0, 2400.0]

    def test_windows_are_property_checked_under_the_cap(self):
        fleet = make_fleet_scenario("hetero-generations", regions=2, rounds=8)
        schedule = compute_quota_schedule(fleet, window_rounds=4)
        assert schedule.checked_windows == len(schedule.windows) > 0
        assert schedule.violations == 0
        for window in schedule.windows:
            assert window.pareto_satisfied and window.sharing_incentive_satisfied

    def test_property_check_cap_marks_windows_unchecked(self):
        fleet = make_fleet_scenario("hetero-generations", regions=2, rounds=8)
        schedule = compute_quota_schedule(
            fleet, window_rounds=4, property_check_max_tenants=1
        )
        assert schedule.checked_windows == 0
        assert schedule.violations == 0  # unchecked is not a pass NOR a fail

    def test_shares_sum_to_one_and_weights_are_positive(self):
        fleet = make_fleet_scenario("spot-preemption", regions=2, rounds=12)
        schedule = compute_quota_schedule(fleet, window_rounds=4)
        for window in schedule.windows:
            assert sum(window.shares) == pytest.approx(1.0)
            assert all(weight > 0 for _, _, weight in window.weights)

    def test_weights_are_replication_friendly(self):
        """Quota weights land on the eighths grid.

        Weighted OEF takes a weight as a real multiplicity on one LP row,
        so the solver no longer needs the grid.  It is kept for the
        positive floor it gives a zero global share (1/8, not 0), as the
        comment above ``QUOTA_WEIGHT_DENOMINATOR`` says.
        """
        from repro.fleet import QUOTA_WEIGHT_DENOMINATOR, quantize_weight

        fleet = make_fleet_scenario("hetero-generations", regions=4, rounds=12)
        schedule = compute_quota_schedule(fleet)
        assert schedule.windows
        for window in schedule.windows:
            for _, _, weight in window.weights:
                steps = weight * QUOTA_WEIGHT_DENOMINATOR
                assert steps == pytest.approx(round(steps))
        assert quantize_weight(0.0) == 1.0 / QUOTA_WEIGHT_DENOMINATOR
        assert quantize_weight(1e9) <= 16.0

    def test_rebalance_sees_population_change_next_window(self):
        """Departures and failover arrivals appear in the following window."""
        fleet = make_fleet_scenario(
            "multiregion-failover", regions=3, rounds=12, fail_fraction=0.4
        )
        # failure hits at 0.4 * 12 * 300 = 1440s; windows at 900/1800/2700
        schedule = compute_quota_schedule(fleet, window_rounds=3)
        before = next(w for w in schedule.windows if w.time < 1440.0)
        after = next(w for w in schedule.windows if w.time > 1440.0)
        assert any(name.startswith("r0t") for name in before.tenants)
        assert not any(
            name.startswith("r0t") and not name.endswith("-failover")
            for name in after.tenants
        )
        assert any(name.endswith("-failover") for name in after.tenants)

    def test_quota_times_never_pass_the_last_round_start(self):
        fleet = make_fleet_scenario("hetero-generations", regions=2, rounds=5)
        schedule = compute_quota_schedule(fleet, window_rounds=4)
        assert all(
            window.time <= fleet.last_round_start for window in schedule.windows
        )


class TestFleetSimulator:
    def test_backends_produce_identical_fingerprints(self, tmp_path):
        import repro.parallel as parallel

        fingerprints = {}
        pids = []
        for run, backend in enumerate(("serial", "thread", "process", "process")):
            result = run_fleet(
                "spot-preemption",
                regions=3,
                rounds=6,
                seed=9,
                backend=backend,
                metrics_path=str(tmp_path / f"{run}-{backend}.jsonl"),
            )
            fingerprints[run] = result.fingerprint()
            assert result.fairness_violations == 0
            assert result.completed_jobs > 0
            if backend == "process":
                pids.append(sorted(parallel._shared_pool._processes))
        assert len(set(fingerprints.values())) == 1
        # the second process run reuses the first one's warm workers
        assert pids[0] and set(pids[0]) <= set(pids[1])

    def test_streamed_rounds_match_region_summaries(self, tmp_path):
        from repro.fleet.metrics import read_fleet_metrics

        path = str(tmp_path / "m.jsonl")
        result = run_fleet(
            "hetero-generations",
            regions=2,
            rounds=6,
            backend="serial",
            metrics_path=path,
        )
        records = read_fleet_metrics(path)
        assert len(records) == result.total_rounds > 0
        assert {r["region"] for r in records} == {
            region.region for region in result.regions
        }

    def test_rebalance_changes_the_replay(self, tmp_path):
        fleet = make_fleet_scenario("hetero-generations", regions=2, rounds=12)
        with_quota = FleetSimulator(fleet, backend="serial").run()
        without = FleetSimulator(fleet, backend="serial", rebalance=False).run()
        assert len(with_quota.quota.windows) > 0
        assert without.quota.windows == ()
        assert with_quota.fingerprint() != without.fingerprint()
        assert 0 < with_quota.rebalance_seconds < with_quota.wall_seconds

    def test_seed_changes_the_fleet(self):
        results = [
            run_fleet(
                "spot-preemption", regions=2, rounds=6, seed=seed, backend="serial"
            )
            for seed in (0, 1)
        ]
        assert results[0].fingerprint() != results[1].fingerprint()

    def test_resolve_falls_back_to_sharding(self):
        fleet = resolve_fleet_scenario("steady", regions=3, rounds=6)
        assert fleet.name == "sharded:steady"
        assert fleet.num_regions == 3

    def test_trace_scenarios_run_at_fleet_scale(self, tmp_path):
        from repro.traces import TraceStore, normalize_rows

        store = TraceStore(str(tmp_path / "store"))
        rows = [
            {
                "job": f"j{i}",
                "user": f"vc-{i % 4}",
                "submit": i * 600,
                "duration": 3600,
                "gpus": 1,
            }
            for i in range(8)
        ]
        store.save("ops", normalize_rows(rows))
        result = run_fleet(
            "trace:ops",
            regions=2,
            rounds=6,
            backend="serial",
            store_root=store.root,
        )
        assert result.fleet == "sharded:trace:ops"
        assert result.completed_jobs > 0

    def test_tenant_swarm_misreports_reach_the_simulator(self):
        fleet = make_fleet_scenario("tenant-swarm", regions=2, rounds=6)
        script = fleet.materialize()
        overrides = dict(script.regions[0].config_overrides)
        assert "misreports" in overrides
        # and the whole thing still runs end to end
        result = FleetSimulator(fleet, backend="serial", rebalance=False).run()
        assert result.completed_jobs > 0

    def test_rejects_non_fleet_scenarios(self):
        with pytest.raises(ValidationError, match="FleetScenario"):
            FleetSimulator(make_scenario("steady"))
