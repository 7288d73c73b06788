"""ClusterSimulator event-queue hooks: mid-run tenant/job/device mutation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, SimulationConfig, paper_cluster
from repro.exceptions import ValidationError
from repro.scenarios import (
    DeviceFailure,
    DeviceRepair,
    JobArrival,
    TenantArrival,
    TenantDeparture,
)
from repro.workloads.generator import TenantGenerator


def _population(num_tenants=2, jobs=1, duration=600.0, seed=0):
    generator = TenantGenerator(seed=seed)
    tenants = generator.make_population(
        num_tenants, jobs_per_tenant=jobs, duration_on_slowest=duration
    )
    return generator, tenants


def _simulator(tenants, events=(), rounds=8, **config):
    return ClusterSimulator(
        paper_cluster(),
        tenants,
        "oef-coop",
        config=SimulationConfig(num_rounds=rounds, **config),
        events=events,
    )


class TestEventQueue:
    def test_events_fire_in_time_order_and_are_counted(self):
        generator, tenants = _population()
        fired = []

        class Probe:
            def __init__(self, time, label):
                self.time = time
                self.label = label

            def apply(self, simulator, now):
                fired.append((self.label, now))

        sim = _simulator(
            tenants, events=[Probe(900.0, "late"), Probe(0.0, "early")]
        )
        sim.run()
        assert [label for label, _ in fired] == ["early", "late"]
        # events quantise to the round boundary they fire at
        assert fired[0][1] == 0.0
        assert fired[1][1] == 900.0
        assert sim.events_applied == 2
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("time", [-1.0, math.nan, math.inf])
    def test_negative_event_time_rejected(self, time):
        # a NaN would corrupt the event heap's order, an inf never fires
        _, tenants = _population()
        sim = _simulator(tenants)

        bad = SimpleNamespace(time=time, apply=lambda simulator, now: None)
        with pytest.raises(ValidationError, match="finite"):
            sim.schedule_event(bad)

    def test_job_arrival_event_adds_work(self):
        generator, tenants = _population(num_tenants=1, jobs=1)
        burst = [
            JobArrival(
                time=600.0,
                tenant_name=tenants[0].name,
                job=generator.make_job(
                    tenants[0].name,
                    tenants[0].jobs[0].model_name,
                    duration_on_slowest=300.0,
                    submit_time=600.0,
                ),
            )
        ]
        baseline = _simulator([t for t in _population(1, 1)[1]]).run()
        metrics = _simulator(tenants, events=burst).run()
        assert len(metrics.completions) == len(baseline.completions) + 1
        # the injected job's JCT is measured from its true submit time
        injected = max(metrics.completions, key=lambda r: r.submit_time)
        assert injected.submit_time == 600.0

    def test_tenant_arrival_and_departure(self):
        generator, tenants = _population(num_tenants=1, jobs=1, duration=3000.0)
        newcomer = generator.make_tenant(
            "newcomer", num_jobs=1, duration_on_slowest=300.0, submit_time=600.0
        )
        events = [
            TenantArrival(time=600.0, tenant=newcomer),
            TenantDeparture(time=1500.0, tenant_name=tenants[0].name),
        ]
        sim = _simulator(tenants, events=events, rounds=10)
        metrics = sim.run()
        finishers = {record.tenant for record in metrics.completions}
        assert "newcomer" in finishers
        # the departed tenant's long job was abandoned, not completed
        assert tenants[0].name not in finishers
        assert sim.tenants[tenants[0].name].departure_time == 1500.0

    def test_duplicate_tenant_arrival_rejected(self):
        generator, tenants = _population(num_tenants=1)
        clone = generator.make_tenant(tenants[0].name, num_jobs=1)
        sim = _simulator(tenants, events=[TenantArrival(time=300.0, tenant=clone)])
        with pytest.raises(ValidationError, match="already exists"):
            sim.run()

    def test_unknown_tenant_mutations_rejected(self):
        _, tenants = _population()
        sim = _simulator(tenants)
        with pytest.raises(ValidationError, match="unknown tenant"):
            sim.remove_tenant("ghost", 0.0)
        with pytest.raises(ValidationError, match="unknown tenant"):
            sim.add_job("ghost", tenants[0].jobs[0])

    def test_idle_cluster_waits_for_future_events(self):
        # one short job, then a long gap, then a late arrival: without the
        # pending-event guard the run would stop at the idle gap
        generator, tenants = _population(num_tenants=1, jobs=1, duration=200.0)
        late = generator.make_tenant(
            "late", num_jobs=1, duration_on_slowest=200.0, submit_time=1800.0
        )
        sim = _simulator(
            tenants,
            events=[TenantArrival(time=1800.0, tenant=late)],
            rounds=10,
        )
        metrics = sim.run()
        assert {record.tenant for record in metrics.completions} == {
            tenants[0].name,
            "late",
        }

    def test_unreachable_event_warns_and_does_not_block_idle_stop(self):
        # an event after the final round's start (rounds=4 -> t=900) can
        # never fire: the run must finish (not idle-wait on it) and say so
        import warnings

        generator, tenants = _population(num_tenants=1, jobs=1, duration=200.0)
        ghost = generator.make_tenant(
            "ghost", num_jobs=1, duration_on_slowest=100.0, submit_time=1000.0
        )
        sim = _simulator(
            tenants, events=[TenantArrival(time=1000.0, tenant=ghost)], rounds=4
        )
        with pytest.warns(RuntimeWarning, match="never +applied"):
            metrics = sim.run()
        assert sim.events_applied == 0
        assert sim.pending_events() == 1
        assert "ghost" not in sim.tenants
        # the short resident job finished; the run did not burn all 4 rounds
        assert {r.tenant for r in metrics.completions} == {tenants[0].name}
        assert len(metrics.rounds) < 4

    def test_device_failure_and_repair_events_change_capacity(self):
        _, tenants = _population(num_tenants=2, jobs=2, duration=4000.0)
        sim = _simulator(
            tenants,
            events=[
                DeviceFailure(time=300.0, device_ids=tuple(range(8))),
                DeviceRepair(time=900.0, device_ids=tuple(range(8))),
            ],
            rounds=6,
            stop_when_idle=False,
        )
        sim.run()
        # after the repair the full capacity vector is back
        assert np.allclose(sim.topology.capacities(), [8.0, 8.0, 8.0])
        devices = [r.devices_used for r in sim.metrics.rounds]
        # during the outage rounds (1 and 2) fewer devices were usable
        assert max(devices[1:3]) <= 16
