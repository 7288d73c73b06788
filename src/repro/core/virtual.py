"""Tenant specs and their fold to weighted rows (§4.2.3–4.2.4).

The paper *proves* the weighted guarantees by replication: a tenant with
weight 2 is two identical virtual users, so every fairness property OEF
holds between users transfers to weighted tenants.  A tenant training
several job types splits its weight equally across them.

Replication is the proof, not the computation: each (tenant, job type) is
**one** row carrying the real weight ``tenant.weight / len(job_types)``,
which the allocators turn into the multiplicity of its LP block
(:class:`repro.core.instance.GroupedInstance`).  Nothing is rounded to a
common denominator: weight 1.3 is honoured as 1.3.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import GroupedInstance, ProblemInstance
from repro.core.speedup import SpeedupMatrix
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class JobTypeSpec:
    """One job type a tenant trains: a name plus its speedup vector."""

    name: str
    speedups: tuple

    @staticmethod
    def of(name: str, speedups: Sequence[float]) -> "JobTypeSpec":
        array = np.asarray(speedups, dtype=float)
        if array.ndim != 1 or array.size == 0:
            raise ValidationError(f"job type {name!r}: speedups must be a 1-D vector")
        if np.any(array <= 0):
            raise ValidationError(f"job type {name!r}: speedups must be positive")
        normalised = array / array[0]
        return JobTypeSpec(name, tuple(float(v) for v in normalised))


def check_weight(name: str, weight: float) -> None:
    """A tenant's weight is positive (which NaN is not) and finite."""
    if not 0 < weight < math.inf:
        raise ValidationError(
            f"tenant {name!r}: weight must be {'finite' if weight > 0 else 'positive'}"
        )


@dataclass(frozen=True)
class TenantSpec:
    """A tenant: a name, a priority weight, and >= 1 job types."""

    name: str
    job_types: tuple
    weight: float = 1.0

    @staticmethod
    def of(
        name: str,
        job_types: Sequence[JobTypeSpec],
        weight: float = 1.0,
    ) -> "TenantSpec":
        if not job_types:
            raise ValidationError(f"tenant {name!r} needs at least one job type")
        check_weight(name, weight)
        sizes = {len(job.speedups) for job in job_types}
        if len(sizes) != 1:
            raise ValidationError(
                f"tenant {name!r}: job types disagree on the number of GPU types"
            )
        return TenantSpec(name, tuple(job_types), float(weight))

    @staticmethod
    def single(name: str, speedups: Sequence[float], weight: float = 1.0) -> "TenantSpec":
        """Convenience: a tenant with exactly one job type."""
        return TenantSpec.of(name, [JobTypeSpec.of(f"{name}/job", speedups)], weight)


@dataclass
class MergedAllocation:
    """A (tenant, job type)-row allocation (``expanded``, solved with
    ``weights``: what the weighted property checks take) folded to tenants."""

    expanded: Allocation
    weights: np.ndarray
    tenant_shares: Dict[str, np.ndarray]
    tenant_throughput: Dict[str, float]
    job_type_shares: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    job_type_throughput: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def total_efficiency(self) -> float:
        return float(sum(self.tenant_throughput.values()))


#: A tenant as plain data: name, weight, ``(job type, speedups)`` pairs in row order.
TenantRows = Tuple[str, float, Sequence[Tuple[str, Sequence[float]]]]


class CheckedRows(NamedTuple):
    """One tenant's rows, checked and normalised once, as
    :class:`VirtualUserExpansion` stacks them: a caller that keeps them while
    the tenant's weight and profiles hold pays its checks once.  Equal
    content, equal tuples: it is its own content key."""

    name: str
    weight: float
    jobs: Tuple[str, ...]  # job type names, in row order
    users: Tuple[str, ...]  # ``tenant/job type`` per row
    width: int  # GPU types
    rows: Tuple[bytes, ...]  # each row normalised to slot 0, as float64 bytes

    @staticmethod
    def of(tenant: "TenantSpec | TenantRows") -> "CheckedRows":
        """Check one tenant as :class:`VirtualUserExpansion` does (each a
        :class:`ValidationError`) and normalise its rows."""
        if isinstance(tenant, TenantSpec):
            tenant = (tenant.name, tenant.weight,
                      [(job.name, job.speedups) for job in tenant.job_types])
        name, weight, jobs = tenant
        if not jobs:
            raise ValidationError(f"tenant {name!r} needs at least one job type")
        check_weight(name, weight)
        try:
            rows = np.array([speedups for _job, speedups in jobs], dtype=float)
        except ValueError:  # ragged
            rows = np.empty(0)
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ValidationError("speedups must be 1-D vectors of one length")
        # a tenant's few numbers are checked and divided as Python floats:
        # the bits numpy's division gives, without its cost per call
        values = rows.tolist()
        if not all(0 < value < math.inf for row in values for value in row):
            raise ValidationError("speedups must be finite and positive")  # NaN too
        # only ratios matter: nothing is scaled to integer replica counts
        ratios = [[value / row[0] for value in row] for row in values]
        if not all(0 < value < math.inf for row in ratios for value in row):
            # positive rows whose ratios are not: the matrix says which way
            SpeedupMatrix(np.array(ratios), normalise=False, require_monotone=False)
        names = tuple(job for job, _speedups in jobs)
        return CheckedRows(
            name, float(weight), names, tuple(f"{name}/{job}" for job in names),
            len(ratios[0]), tuple(array("d", row).tobytes() for row in ratios),
        )


class VirtualUserExpansion:
    """Tenants as one weighted row per (tenant, job type), and back.

    ``tenants`` are :class:`TenantSpec` objects, :data:`TenantRows` tuples
    or :class:`CheckedRows` already checked; the others are checked here
    (each a :class:`ValidationError`), then all are stacked into one matrix.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec | TenantRows | CheckedRows],
        gpu_types: Optional[Sequence[str]] = None,
    ):
        if not tenants:
            raise ValidationError("at least one tenant is required")
        #: (tenant name, its job type names), in row order
        self._layout: List[Tuple[str, Tuple[str, ...]]] = []
        # each row's bytes (which key the fold), user name and weight: the
        # tenant's, split equally
        self._rows: List[bytes] = []
        users: List[str] = []
        weights: List[float] = []
        widths = set()
        for tenant in tenants:
            block = tenant if isinstance(tenant, CheckedRows) else CheckedRows.of(tenant)
            self._layout.append((block.name, block.jobs))
            self._rows += block.rows
            users += block.users
            weights += [block.weight / len(block.jobs)] * len(block.jobs)
            widths.add(block.width)
        if len({name for name, _jobs in self._layout}) != len(self._layout):
            raise ValidationError("tenant names must be unique")
        if len(widths) != 1:
            raise ValidationError("speedups must be 1-D vectors of one length")
        self.gpu_types = list(gpu_types) if gpu_types else None
        self.weights = np.array(weights)
        self._profiles = np.frombuffer(b"".join(self._rows)).reshape(
            len(self._rows), widths.pop()
        )
        self._matrix = SpeedupMatrix.checked(self._profiles, users, self.gpu_types)

    # -- expansion -----------------------------------------------------------
    def expanded_matrix(self) -> SpeedupMatrix:
        """The speedup matrix with one row per (tenant, job type)."""
        return self._matrix

    def problem(self, capacities) -> Tuple[ProblemInstance, GroupedInstance]:
        """The rows on ``capacities`` (checked by :class:`ProblemInstance`)
        and their fold to LP blocks, from the profiles and weights read here."""
        instance = ProblemInstance(self._matrix, capacities)
        return instance, GroupedInstance.fold(
            self._profiles, self.weights, instance.capacities, self._rows
        )

    # -- merging ---------------------------------------------------------------
    def merge(self, allocation: Allocation) -> MergedAllocation:
        """Fold a (tenant, job type)-row allocation back to tenants, in one pass.

        Every share is read-only: a row view of the allocation's matrix
        when that is read-only already (as :class:`~repro.core.weighted.
        WeightedOEF` hands it over), else of one frozen copy of it; a
        tenant's total over several job types is a frozen sum of its rows.
        """
        if allocation.matrix.shape[0] != self._matrix.num_users:
            raise ValidationError("allocation was not computed on this expansion's matrix")
        shares = allocation.matrix
        if shares.flags.writeable:
            shares = shares.copy()
            shares.setflags(write=False)
        # row l's W_l @ x_l, batched: the same matmul loop per row, same bits
        speeds = self._profiles
        throughputs = np.matmul(speeds[:, None, :], shares[:, :, None])[:, 0, 0].tolist()
        merged = MergedAllocation(allocation, self.weights, {}, {})
        start = 0
        for name, jobs in self._layout:
            if len(jobs) == 1:  # a row is its own total: a one-row sum's bits
                merged.tenant_shares[name] = row = shares[start]
                merged.job_type_shares[name] = {jobs[0]: row}
                merged.job_type_throughput[name] = {jobs[0]: throughputs[start]}
                merged.tenant_throughput[name] = 0.0 + throughputs[start]
                start += 1
                continue
            stop = start + len(jobs)
            merged.job_type_shares[name] = dict(zip(jobs, shares[start:stop]))
            merged.job_type_throughput[name] = dict(zip(jobs, throughputs[start:stop]))
            merged.tenant_shares[name] = total = shares[start:stop].sum(axis=0)
            total.setflags(write=False)
            merged.tenant_throughput[name] = sum(throughputs[start:stop], 0.0)
            start = stop
        return merged
