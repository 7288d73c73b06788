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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.allocation import Allocation
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
        if weight <= 0:
            raise ValidationError(f"tenant {name!r}: weight must be positive")
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


class VirtualUserExpansion:
    """Tenant specs as one weighted row per (tenant, job type), and back."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        gpu_types: Optional[Sequence[str]] = None,
    ):
        if not tenants:
            raise ValidationError("at least one tenant is required")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValidationError("tenant names must be unique")
        num_types = len(tenants[0].job_types[0].speedups)
        for tenant in tenants:
            if len(tenant.job_types[0].speedups) != num_types:
                raise ValidationError("tenants disagree on the number of GPU types")
        self.tenants = list(tenants)
        self.gpu_types = list(gpu_types) if gpu_types else None
        #: weight of each (tenant, job type) row: the tenant's, split equally.
        #: Only ratios matter, so nothing is scaled to integer replica counts
        self.weights = np.array(
            [t.weight / len(t.job_types) for t in tenants for _job in t.job_types]
        )
        self._matrix: Optional[SpeedupMatrix] = None

    # -- expansion -----------------------------------------------------------
    def expanded_matrix(self) -> SpeedupMatrix:
        """The speedup matrix with one row per (tenant, job type)."""
        if self._matrix is None:
            rows = [(t.name, job) for t in self.tenants for job in t.job_types]
            self._matrix = SpeedupMatrix(
                np.array([job.speedups for _tenant, job in rows]),
                users=[f"{tenant}/{job.name}" for tenant, job in rows],
                gpu_types=self.gpu_types,
                normalise=False,
                require_monotone=False,
            )
        return self._matrix

    # -- merging ---------------------------------------------------------------
    def merge(self, allocation: Allocation) -> MergedAllocation:
        """Fold a (tenant, job type)-row allocation back to tenants."""
        matrix = self.expanded_matrix()
        if allocation.matrix.shape[0] != matrix.num_users:
            raise ValidationError("allocation was not computed on this expansion's matrix")
        merged = MergedAllocation(allocation, self.weights, {}, {})
        rows = zip(matrix.values, allocation.matrix)
        for tenant in self.tenants:
            shares = merged.job_type_shares[tenant.name] = {}
            throughput = merged.job_type_throughput[tenant.name] = {}
            for job in tenant.job_types:
                speeds, share = next(rows)
                shares[job.name] = share.copy()
                throughput[job.name] = float(speeds @ share)
            merged.tenant_shares[tenant.name] = np.sum(list(shares.values()), axis=0)
            merged.tenant_throughput[tenant.name] = sum(throughput.values(), 0.0)
        return merged
