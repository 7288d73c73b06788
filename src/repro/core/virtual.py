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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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


class VirtualUserExpansion:
    """Tenants as one weighted row per (tenant, job type), and back.

    ``tenants`` are :class:`TenantSpec` objects or :data:`TenantRows`
    tuples, stacked into one matrix and checked as the specs are (each a
    :class:`ValidationError`).
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec | TenantRows],
        gpu_types: Optional[Sequence[str]] = None,
    ):
        if not tenants:
            raise ValidationError("at least one tenant is required")
        #: (tenant name, its job type names), in row order
        self._layout: List[Tuple[str, List[str]]] = []
        vectors, users, weights = [], [], []
        for tenant in tenants:
            if isinstance(tenant, TenantSpec):
                tenant = (tenant.name, tenant.weight,
                          [(job.name, job.speedups) for job in tenant.job_types])
            name, weight, jobs = tenant
            if not jobs:
                raise ValidationError(f"tenant {name!r} needs at least one job type")
            check_weight(name, weight)
            # only ratios matter: nothing is scaled to integer replica counts
            share, job_names = float(weight) / len(jobs), []
            for job, speedups in jobs:
                job_names.append(job)
                vectors.append(speedups)
                users.append(f"{name}/{job}")
                weights.append(share)
            self._layout.append((name, job_names))
        if len({name for name, _jobs in self._layout}) != len(self._layout):
            raise ValidationError("tenant names must be unique")
        try:
            rows = np.array(vectors, dtype=float)
        except ValueError:  # ragged
            rows = np.empty(0)
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ValidationError("speedups must be 1-D vectors of one length")
        if not (rows.min() > 0 and rows.max() < np.inf):  # a NaN fails both
            raise ValidationError("speedups must be finite and positive")
        self.gpu_types = list(gpu_types) if gpu_types else None
        #: weight of each (tenant, job type) row: the tenant's, split equally
        self.weights = np.array(weights)
        self._profiles = rows / rows[:, :1]
        if not (self._profiles.min() > 0 and self._profiles.max() < np.inf):
            # positive rows whose ratios are not: the matrix says which way
            SpeedupMatrix(self._profiles, normalise=False, require_monotone=False)
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
            self._profiles, self.weights, instance.capacities
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
