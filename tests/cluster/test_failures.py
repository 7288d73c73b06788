"""Failure injection: device failures shrink capacity, schedulers adapt."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    OEFScheduler,
    SimulationConfig,
    paper_cluster,
)
from repro.exceptions import ValidationError
from repro.scenarios.events import DeviceFailure, DeviceRepair
from repro.workloads import TenantGenerator


def _population(num_tenants=3, num_jobs=8):
    generator = TenantGenerator(seed=8)
    models = ["vgg16", "lstm", "resnet50"]
    return [
        generator.make_tenant(
            f"t{i}", model_name=models[i % 3], num_jobs=num_jobs,
            duration_on_slowest=36000.0,
        )
        for i in range(num_tenants)
    ]


def _fail(round_index, device_ids):
    """Devices that fail at the start of ``round_index`` (300 s rounds)."""
    return DeviceFailure(time=round_index * 300.0, device_ids=tuple(device_ids))


def _repair(round_index, device_ids):
    return DeviceRepair(time=round_index * 300.0, device_ids=tuple(device_ids))


class TestDeviceState:
    def test_fail_and_repair(self):
        topology = paper_cluster()
        topology.fail_devices([0, 1])
        assert not topology.devices[0].is_free
        np.testing.assert_allclose(topology.capacities(), [6.0, 8.0, 8.0])
        topology.repair_devices([0])
        np.testing.assert_allclose(topology.capacities(), [7.0, 8.0, 8.0])

    def test_failed_device_drops_assignment(self):
        topology = paper_cluster()
        topology.devices[0].assigned_job = 42
        topology.devices[0].fail()
        assert topology.devices[0].assigned_job is None

    def test_release_all_keeps_failed_marked(self):
        topology = paper_cluster()
        topology.fail_devices([3])
        topology.release_all()
        assert topology.devices[3].failed
        assert sum(host.num_free for host in topology.hosts_of_type(0)) == 7

    def test_unknown_device_id_is_an_error_and_changes_nothing(self):
        # a typo'd id used to be a silent no-op
        topology = paper_cluster()
        with pytest.raises(ValidationError, match=r"unknown device ids: \[24, 99\]"):
            topology.fail_devices([0, 24, 99])
        assert not topology.devices[0].failed
        topology.fail_devices([0])
        with pytest.raises(ValidationError, match=r"unknown device ids: \[-1\]"):
            topology.repair_devices([0, -1])
        assert topology.devices[0].failed

    def test_index_follows_the_devices(self):
        # ids index `devices` directly: any order, repeats
        topology = paper_cluster()
        topology.fail_devices((23, 8, 8))
        assert [d.device_id for d in topology.devices if d.failed] == [8, 23]
        assert [len(topology.hosts_of_type(rank)) for rank in (-1, 0, 2, 3)] == [
            0, 2, 2, 0,
        ]
        np.testing.assert_array_equal(topology.capacities(), [8, 7, 7])
        assert topology.summary()["rtx3080"] == (2, 8)


class TestSimulationUnderFailures:
    def test_unknown_device_in_a_failure_event_stops_the_run(self):
        simulator = ClusterSimulator(
            paper_cluster(),
            _population(),
            OEFScheduler("noncooperative"),
            config=SimulationConfig(num_rounds=3, stop_when_idle=False),
            events=[DeviceFailure(time=300.0, device_ids=(2, 240))],
        )
        with pytest.raises(ValidationError, match="240"):
            simulator.run()
        assert simulator.metrics.rounds_recorded == 1
        assert not simulator.topology.devices[2].failed

    def test_capacity_drop_reduces_throughput(self):
        baseline = ClusterSimulator(
            paper_cluster(),
            _population(),
            OEFScheduler("noncooperative"),
            config=SimulationConfig(num_rounds=4, stop_when_idle=False),
        ).run()

        degraded = ClusterSimulator(
            paper_cluster(),
            _population(),
            OEFScheduler("noncooperative"),
            config=SimulationConfig(num_rounds=4, stop_when_idle=False),
            events=[_fail(2, range(16, 24))],  # lose all 3090s
        ).run()

        # identical before the failure round
        assert degraded.rounds[0].total_actual == pytest.approx(
            baseline.rounds[0].total_actual
        )
        # strictly less delivered capacity afterwards
        assert degraded.rounds[3].total_actual < baseline.rounds[3].total_actual
        assert degraded.rounds[3].devices_used <= 16

    def test_scheduler_reallocates_around_failures(self):
        metrics = ClusterSimulator(
            paper_cluster(),
            _population(),
            OEFScheduler("noncooperative"),
            config=SimulationConfig(num_rounds=4, stop_when_idle=False),
            events=[_fail(1, [0, 1, 2, 3])],
        ).run()
        # cluster keeps running every round; nothing crashes or stalls
        for round_metrics in metrics.rounds:
            assert round_metrics.total_actual > 0

    def test_repair_restores_capacity(self):
        metrics = ClusterSimulator(
            paper_cluster(),
            _population(),
            OEFScheduler("noncooperative"),
            config=SimulationConfig(num_rounds=4, stop_when_idle=False),
            events=[_fail(1, range(8)), _repair(3, range(8))],
        ).run()
        assert metrics.rounds[3].devices_used > metrics.rounds[1].devices_used

    def test_failure_of_whole_type_keeps_matrix_valid(self):
        # losing every device of one type shrinks the capacity vector to a
        # zero entry; allocators must still produce valid allocations
        metrics = ClusterSimulator(
            paper_cluster(),
            _population(num_tenants=2, num_jobs=4),
            OEFScheduler("cooperative"),
            config=SimulationConfig(num_rounds=3, stop_when_idle=False),
            events=[_fail(1, range(0, 8))],
        ).run()
        assert metrics.rounds[2].total_actual > 0
