"""Cluster topology: hosts, device inventories, and capacity vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.gpu import GPUDevice, GPUType, Host
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class HostGroupSpec:
    """``num_hosts`` machines, each with ``gpus_per_host`` devices of one type."""

    gpu_type_name: str
    num_hosts: int
    gpus_per_host: int

    def __post_init__(self) -> None:
        if self.num_hosts <= 0 or self.gpus_per_host <= 0:
            raise ValidationError("host groups need positive host and GPU counts")


class ClusterTopology:
    """The physical cluster: GPU types (slowest first), hosts, devices.

    The order of ``groups`` defines the GPU-type ranking — list the slowest
    type first, exactly as speedup matrices order their columns.
    """

    def __init__(self, groups: Sequence[HostGroupSpec]):
        if not groups:
            raise ValidationError("a cluster needs at least one host group")
        names = [group.gpu_type_name for group in groups]
        if len(set(names)) != len(names):
            raise ValidationError("GPU type names must be unique across groups")

        self.gpu_types: List[GPUType] = [
            GPUType(rank=rank, name=group.gpu_type_name)
            for rank, group in enumerate(groups)
        ]
        self.hosts: List[Host] = []
        self.devices: List[GPUDevice] = []
        # hosts per type rank, in host-id order; ``devices[i].device_id == i``
        self._hosts_by_rank: List[List[Host]] = [[] for _ in groups]

        host_id = 0
        device_id = 0
        for gpu_type, group in zip(self.gpu_types, groups):
            for _ in range(group.num_hosts):
                host_devices = []
                for _ in range(group.gpus_per_host):
                    device = GPUDevice(
                        device_id=device_id, gpu_type=gpu_type, host_id=host_id
                    )
                    host_devices.append(device)
                    self.devices.append(device)
                    device_id += 1
                host = Host(host_id, gpu_type, host_devices)
                self.hosts.append(host)
                self._hosts_by_rank[gpu_type.rank].append(host)
                host_id += 1

    # -- capacity views -------------------------------------------------------
    @property
    def num_gpu_types(self) -> int:
        return len(self.gpu_types)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def gpu_type_names(self) -> List[str]:
        return [gpu_type.name for gpu_type in self.gpu_types]

    def capacities(self) -> np.ndarray:
        """Healthy device count per GPU type, indexed by type rank."""
        counts = np.zeros(self.num_gpu_types)
        for device in self.devices:
            if not device.failed:
                counts[device.gpu_type.rank] += 1
        return counts

    def _lookup_devices(self, device_ids) -> List[GPUDevice]:
        device_ids = list(device_ids)
        unknown = [i for i in device_ids if not 0 <= i < len(self.devices)]
        if unknown:
            raise ValidationError(f"unknown device ids: {unknown}")
        return [self.devices[i] for i in device_ids]

    def fail_devices(self, device_ids) -> None:
        """Fail the given devices; an unknown id raises and changes nothing."""
        for device in self._lookup_devices(device_ids):
            device.fail()

    def repair_devices(self, device_ids) -> None:
        """Repair the given devices; an unknown id raises and changes nothing."""
        for device in self._lookup_devices(device_ids):
            device.repair()

    def hosts_of_type(self, rank: int) -> List[Host]:
        """The hosts of one GPU type, in host-id order."""
        return list(self._hosts_by_rank[rank]) if 0 <= rank < self.num_gpu_types else []

    def release_all(self) -> None:
        """Unbind every healthy device (start of a scheduling round)."""
        for device in self.devices:
            if not device.failed:
                device.assigned_job = None

    def type_index(self, name: str) -> int:
        for gpu_type in self.gpu_types:
            if gpu_type.name == name:
                return gpu_type.rank
        raise ValidationError(f"unknown GPU type {name!r}")

    def summary(self) -> Dict[str, Tuple[int, int]]:
        """``type name -> (hosts, devices)`` for reports."""
        result: Dict[str, Tuple[int, int]] = {}
        for gpu_type, hosts in zip(self.gpu_types, self._hosts_by_rank):
            result[gpu_type.name] = (
                len(hosts),
                sum(host.num_devices for host in hosts),
            )
        return result


def paper_cluster() -> ClusterTopology:
    """The paper's testbed: 8x 3070 + 8x 3080 + 8x 3090, four per host."""
    return ClusterTopology(
        [
            HostGroupSpec("rtx3070", num_hosts=2, gpus_per_host=4),
            HostGroupSpec("rtx3080", num_hosts=2, gpus_per_host=4),
            HostGroupSpec("rtx3090", num_hosts=2, gpus_per_host=4),
        ]
    )


def scaled_cluster(
    gpu_type_names: Sequence[str],
    devices_per_type: int,
    gpus_per_host: int = 4,
) -> ClusterTopology:
    """A homogeneous-per-type cluster scaled up for large experiments."""
    if devices_per_type % gpus_per_host:
        raise ValidationError("devices_per_type must be a multiple of gpus_per_host")
    return ClusterTopology(
        [
            HostGroupSpec(name, devices_per_type // gpus_per_host, gpus_per_host)
            for name in gpu_type_names
        ]
    )
