"""The scenario event vocabulary: timed mutations of a running simulation.

Every event is a frozen dataclass with a ``time`` (seconds since the
simulation start) and an ``apply(simulator, now)`` method — the protocol
:class:`~repro.cluster.simulator.ClusterSimulator` drains at each round
boundary.  ``now`` is the start time of the round the event actually
fires in (events quantise to round boundaries; a job's *submit_time* may
still be the exact arrival instant, so JCTs stay honest).

Events are plain data: building a scenario produces a list of them, and
two scenarios built from the same name and seed produce streams with
identical :meth:`ScenarioEvent.signature` sequences — the determinism
contract the scenario tests pin down.  Equality via ``==`` is deliberately
not the comparison tool (jobs and tenants hold numpy arrays and mutable
run state); compare signatures instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Tuple

from repro.cluster.job import Job
from repro.cluster.tenant import Tenant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulator import ClusterSimulator


@dataclass(frozen=True, eq=False)
class ScenarioEvent:
    """Base timed event: fires once, at the first round starting >= ``time``."""

    time: float

    #: ``apply`` changes the simulation only through the simulator's hooks,
    #: which name the tenants they touch; a subclass that changes it any
    #: other way sets this False, and the simulator rebuilds every tenant
    hooks_only: ClassVar[bool] = True

    def apply(self, simulator: "ClusterSimulator", now: float) -> None:
        raise NotImplementedError

    def signature(self) -> Tuple:
        """A content tuple of primitives: equal streams <=> equal signatures."""
        return (type(self).__name__, round(float(self.time), 6))


def _job_signature(job: Job) -> Tuple:
    """The content of one job, reduced to hashable primitives."""
    return (
        job.job_id,
        job.tenant,
        job.model_name,
        job.num_workers,
        round(float(job.total_iterations), 6),
        round(float(job.submit_time), 6),
        tuple(round(float(v), 9) for v in job.true_throughput),
    )


def _tenant_signature(tenant: Tenant) -> Tuple:
    return (
        tenant.name,
        round(float(tenant.weight), 6),
        round(float(tenant.arrival_time), 6),
        None
        if tenant.departure_time is None
        else round(float(tenant.departure_time), 6),
        tuple(_job_signature(job) for job in tenant.jobs),
    )


@dataclass(frozen=True, eq=False)
class TenantArrival(ScenarioEvent):
    """A new tenant joins the cluster with its initial bag of jobs."""

    tenant: Tenant = None  # type: ignore[assignment]

    def apply(self, simulator: "ClusterSimulator", now: float) -> None:
        simulator.add_tenant(self.tenant)

    def signature(self) -> Tuple:
        return (*super().signature(), _tenant_signature(self.tenant))


@dataclass(frozen=True, eq=False)
class TenantDeparture(ScenarioEvent):
    """A tenant leaves; unfinished jobs are abandoned (churn, not drain)."""

    tenant_name: str = ""

    def apply(self, simulator: "ClusterSimulator", now: float) -> None:
        simulator.remove_tenant(self.tenant_name, now)

    def signature(self) -> Tuple:
        return (*super().signature(), self.tenant_name)


@dataclass(frozen=True, eq=False)
class JobArrival(ScenarioEvent):
    """An existing tenant submits one more job (bursts, diurnal load)."""

    tenant_name: str = ""
    job: Job = None  # type: ignore[assignment]

    def apply(self, simulator: "ClusterSimulator", now: float) -> None:
        simulator.add_job(self.tenant_name, self.job)

    def signature(self) -> Tuple:
        return (*super().signature(), self.tenant_name, _job_signature(self.job))


@dataclass(frozen=True, eq=False)
class DeviceFailure(ScenarioEvent):
    """Devices fail at the start of the round (capacity shrinks)."""

    device_ids: Tuple[int, ...] = ()

    def apply(self, simulator: "ClusterSimulator", now: float) -> None:
        # through the simulator (not the bare topology) so the warm-start
        # engine sees the shape change and flushes its decision memo
        simulator.fail_devices(self.device_ids)

    def signature(self) -> Tuple:
        return (*super().signature(), tuple(self.device_ids))


@dataclass(frozen=True, eq=False)
class DeviceRepair(ScenarioEvent):
    """Previously failed devices return to service."""

    device_ids: Tuple[int, ...] = ()

    def apply(self, simulator: "ClusterSimulator", now: float) -> None:
        simulator.repair_devices(self.device_ids)

    def signature(self) -> Tuple:
        return (*super().signature(), tuple(self.device_ids))


__all__ = [
    "DeviceFailure",
    "DeviceRepair",
    "JobArrival",
    "ScenarioEvent",
    "TenantArrival",
    "TenantDeparture",
]
