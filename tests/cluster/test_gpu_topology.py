"""GPU/host model and cluster topology."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterTopology,
    GPUDevice,
    GPUType,
    Host,
    HostGroupSpec,
    paper_cluster,
    scaled_cluster,
)
from repro.exceptions import ValidationError


class TestGPUPrimitives:
    def test_gpu_type_ordering(self):
        slow = GPUType(0, "k80")
        fast = GPUType(2, "a100")
        assert slow < fast

    def test_device_free_and_failed(self):
        device = GPUDevice(0, GPUType(0, "k80"), host_id=0)
        assert device.is_free
        device.assigned_job = 7
        assert not device.is_free
        device.fail()
        assert device.assigned_job is None and not device.is_free
        device.repair()
        assert device.is_free

    def test_host_rejects_mixed_types(self):
        t0, t1 = GPUType(0, "a"), GPUType(1, "b")
        devices = [GPUDevice(0, t0, 0), GPUDevice(1, t1, 0)]
        with pytest.raises(ValidationError):
            Host(0, t0, devices)

    def test_host_free_counting(self):
        gpu_type = GPUType(0, "a")
        devices = [GPUDevice(i, gpu_type, 0) for i in range(4)]
        host = Host(0, gpu_type, devices)
        assert host.num_free == 4
        devices[0].assigned_job = 1
        assert host.num_free == 3
        assert len(host.free_devices()) == 3


class TestTopology:
    def test_paper_cluster_shape(self):
        topology = paper_cluster()
        assert topology.num_devices == 24
        assert topology.num_gpu_types == 3
        assert len(topology.hosts) == 6
        np.testing.assert_allclose(topology.capacities(), [8.0, 8.0, 8.0])

    def test_paper_cluster_type_order(self):
        topology = paper_cluster()
        assert topology.gpu_type_names == ["rtx3070", "rtx3080", "rtx3090"]

    def test_summary(self):
        summary = paper_cluster().summary()
        assert summary["rtx3090"] == (2, 8)

    def test_hosts_of_type(self):
        topology = paper_cluster()
        hosts = topology.hosts_of_type(1)
        assert len(hosts) == 2
        assert all(host.gpu_type.name == "rtx3080" for host in hosts)

    def test_type_index(self):
        topology = paper_cluster()
        assert topology.type_index("rtx3080") == 1
        with pytest.raises(ValidationError):
            topology.type_index("h100")

    def test_free_count_and_release_all(self):
        topology = paper_cluster()
        topology.devices[0].assigned_job = 1
        topology.devices[8].assigned_job = 2
        assert [host.num_free for host in topology.hosts] == [3, 4, 3, 4, 4, 4]
        topology.release_all()
        assert sum(host.num_free for host in topology.hosts) == 24

    def test_empty_groups_rejected(self):
        with pytest.raises(ValidationError):
            ClusterTopology([])

    def test_duplicate_type_names_rejected(self):
        with pytest.raises(ValidationError):
            ClusterTopology(
                [HostGroupSpec("a", 1, 4), HostGroupSpec("a", 1, 4)]
            )

    def test_non_positive_group_spec_rejected(self):
        with pytest.raises(ValidationError):
            HostGroupSpec("a", 0, 4)
        with pytest.raises(ValidationError):
            HostGroupSpec("a", 1, 0)

    def test_scaled_cluster(self):
        topology = scaled_cluster(["a", "b"], devices_per_type=8, gpus_per_host=4)
        assert topology.num_devices == 16
        assert len(topology.hosts) == 4

    def test_scaled_cluster_divisibility(self):
        with pytest.raises(ValidationError):
            scaled_cluster(["a"], devices_per_type=6, gpus_per_host=4)

    def test_device_ids_unique(self):
        topology = paper_cluster()
        ids = [device.device_id for device in topology.devices]
        assert len(set(ids)) == len(ids)
