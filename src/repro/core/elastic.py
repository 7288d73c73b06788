"""Job-level fairness for elastic DL training (the paper's §8 extension).

The paper closes by noting OEF "can be extended to support job-level
fairness" by exploiting elastic training.  The extension is a natural
application of the weighted machinery of §4.2.3–4.2.4: every *job*
becomes one row carrying ``tenant_weight / num_active_jobs`` (jobs of one
model share a profile, so they share one LP block whatever their count), so

* tenants still receive throughput proportional to their weights (the
  replication argument of Weighted OEF), and
* within a tenant, every job receives an equal share of the tenant's
  throughput — job-level fairness — instead of the round-robin time
  slicing of §6.1.3.

Elastic jobs then actually *consume* fractional shares: a job granted 3
GPUs this round runs 3 workers, one granted 1 runs 1, removing the
starvation that integral job demands cause under rigid scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.virtual import TenantRows
from repro.core.weighted import WeightedOEF
from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.job import Job
    from repro.cluster.tenant import Tenant


@dataclass
class JobLevelAllocation:
    """Per-job fluid shares plus roll-ups to tenants."""

    job_shares: Dict[Tuple[str, int], np.ndarray]
    job_throughput: Dict[Tuple[str, int], float]
    tenant_shares: Dict[str, np.ndarray]
    tenant_throughput: Dict[str, float]

    def total_efficiency(self) -> float:
        return float(sum(self.tenant_throughput.values()))


class JobLevelOEF:
    """OEF with one weighted row per active job (§8 extension)."""

    def __init__(self, mode: str = "noncooperative"):
        self._weighted = WeightedOEF(mode=mode)
        self.mode = mode
        self.name = f"oef-job-level-{'noncoop' if mode == 'noncooperative' else 'coop'}"

    def allocate(
        self,
        tenants: Sequence[Tenant],
        capacities: Sequence[float] | np.ndarray,
        now: float | None = None,
    ) -> JobLevelAllocation:
        """Fluid per-job shares for the active jobs of the given tenants."""
        rows: List[TenantRows] = []
        job_index: Dict[str, List[Job]] = {}
        for tenant in tenants:
            active = tenant.active_jobs(now)
            if not active:
                raise ValidationError(
                    f"tenant {tenant.name!r} has no active jobs to allocate for"
                )
            job_index[tenant.name] = active
            jobs = [(f"job{job.job_id}", job.speedup_vector) for job in active]
            rows.append((tenant.name, tenant.weight, jobs))

        merged = self._weighted.allocate(rows, capacities)

        job_shares: Dict[Tuple[str, int], np.ndarray] = {}
        job_throughput: Dict[Tuple[str, int], float] = {}
        for tenant in tenants:
            for job in job_index[tenant.name]:
                key = f"job{job.job_id}"
                job_shares[(tenant.name, job.job_id)] = merged.job_type_shares[
                    tenant.name
                ][key]
                job_throughput[(tenant.name, job.job_id)] = merged.job_type_throughput[
                    tenant.name
                ][key]
        return JobLevelAllocation(
            job_shares=job_shares,
            job_throughput=job_throughput,
            tenant_shares=dict(merged.tenant_shares),
            tenant_throughput=dict(merged.tenant_throughput),
        )
