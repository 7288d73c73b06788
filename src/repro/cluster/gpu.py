"""GPU devices, types, and hosts — the physical cluster model.

The paper's testbed is 24 GPUs: eight RTX 3070, eight 3080, eight 3090,
co-located four-per-host.  :func:`repro.cluster.topology.paper_cluster`
builds exactly that; arbitrary topologies are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.exceptions import ValidationError


@dataclass(frozen=True, order=True)
class GPUType:
    """One accelerator generation.

    ``rank`` orders types slowest-first (rank 0 = slowest), matching the
    column order of every speedup matrix.  ``memory_gb`` is informational
    (capacity-based admission is out of the paper's scope).
    """

    rank: int
    name: str
    memory_gb: float = 24.0

    def __str__(self) -> str:
        return self.name


@dataclass
class GPUDevice:
    """A single physical device on a host."""

    device_id: int
    gpu_type: GPUType
    host_id: int
    # the job currently bound to this device, if any (job ids are opaque)
    assigned_job: Optional[int] = None
    # failed devices are invisible to capacity accounting and placement
    failed: bool = False

    @property
    def is_free(self) -> bool:
        return self.assigned_job is None and not self.failed

    def fail(self) -> None:
        """Mark the device failed; any bound job loses this worker."""
        self.failed = True
        self.assigned_job = None

    def repair(self) -> None:
        self.failed = False


@dataclass
class Host:
    """A machine holding several co-located devices of one GPU type."""

    host_id: int
    gpu_type: GPUType
    devices: List[GPUDevice] = field(default_factory=list)

    def __post_init__(self) -> None:
        for device in self.devices:
            if device.gpu_type != self.gpu_type:
                raise ValidationError(
                    f"host {self.host_id} mixes GPU types "
                    f"({device.gpu_type} vs {self.gpu_type})"
                )

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def free_devices(self) -> List[GPUDevice]:
        # ``is_free`` inlined: the placer lists every host's free devices
        # once per round
        return [
            device
            for device in self.devices
            if device.assigned_job is None and not device.failed
        ]

    @property
    def num_free(self) -> int:
        return sum(1 for device in self.devices if device.is_free)
