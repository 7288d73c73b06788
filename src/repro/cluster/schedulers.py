"""Round-level fair-share schedulers: allocator -> fluid shares per tenant.

These adapters sit between the cluster simulator and the allocation
algorithms.  Each round, the simulator hands a scheduler the active
tenants, their *measured* speedup profiles, and the capacity vector; the
scheduler returns fluid (fractional) shares plus its own throughput
estimate — the "estimated" bars of Fig. 7/8.

Two adapters exist:

* :class:`OEFScheduler` — runs :class:`~repro.core.weighted.WeightedOEF`,
  so weights and multiple job types per tenant work out of the box;
* :class:`SingleProfileScheduler` — wraps any single-vector
  :class:`~repro.core.base.Allocator` (Max-Min, Gandiva_fair, Gavel).
  These baselines cannot express several job types per tenant (§2.4), so
  the adapter represents each tenant by its *dominant* job type (the one
  with the most active jobs, matching the paper's evaluation setup where
  baseline comparisons use single-type tenants).

:func:`make_fair_share_scheduler` builds either adapter from a registry
name or alias, so the simulator, experiments, and examples never
construct adapters by hand.
"""

from __future__ import annotations

import abc
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.base import Allocator
from repro.core.instance import ProblemInstance
from repro.core.speedup import SpeedupMatrix
from repro.core.weighted import WeightedOEF
from repro.cluster.job import Job
from repro.cluster.tenant import Tenant
from repro.exceptions import SimulationError
from repro.registry import create_scheduler, resolve_scheduler_name

#: tenant name -> the round's active jobs (``None``: every unfinished job)
ActiveJobs = Optional[Mapping[str, Sequence[Job]]]


def _vector_bytes(vector: np.ndarray) -> bytes:
    return np.asarray(vector, dtype=float).tobytes()


@dataclass
class SchedulerDecision:
    """Fluid shares and the evaluator's own throughput estimate."""

    tenant_shares: Dict[str, np.ndarray]
    estimated: Dict[str, float]
    solver_seconds: float = 0.0
    job_type_shares: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)


class FairShareScheduler(abc.ABC):
    """One fair-share evaluation per scheduling round."""

    name: str = "scheduler"

    @abc.abstractmethod
    def shares(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        capacities: np.ndarray,
        *, active_jobs: ActiveJobs = None,
    ) -> SchedulerDecision:
        """Compute fluid shares for the given round.

        ``profiles`` maps tenant name -> job type -> measured speedup
        vector (already normalised, slowest type first); ``active_jobs``
        the round's active jobs per tenant (``None``: all unfinished ones).
        """

    def decision_key(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        capacities: np.ndarray,
        *, active_jobs: ActiveJobs = None,
    ) -> Optional[Hashable]:
        """Content key over *everything* :meth:`shares` reads, or ``None``.

        The simulator's warm-start path memoizes :class:`SchedulerDecision`
        objects by this key: a repeat key is served from the previous
        solve instead of re-running the LP, which is sound exactly
        because the key covers every input the decision depends on and
        :meth:`shares` is deterministic.  Return ``None`` (the default)
        when the decision depends on state beyond the three arguments —
        e.g. job-level scheduling — so every round solves cold.
        """
        return None


class OEFScheduler(FairShareScheduler):
    """OEF fair-share evaluator (either environment)."""

    def __init__(self, mode: str = "noncooperative"):
        if mode not in ("noncooperative", "cooperative"):
            raise SimulationError(f"unknown OEF mode {mode!r}")
        self.mode = mode
        self.name = f"oef-{'noncoop' if mode == 'noncooperative' else 'coop'}"

    def shares(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        capacities: np.ndarray,
        *, active_jobs: ActiveJobs = None,
    ) -> SchedulerDecision:
        # one row per (tenant, model), models sorted; the fold checks them
        rows = [(t.name, t.weight, sorted(profiles[t.name].items())) for t in tenants]
        start = time.perf_counter()
        merged = WeightedOEF(mode=self.mode).allocate(rows, capacities)
        elapsed = time.perf_counter() - start
        # the merged arrays are this call's own: handed over without copies
        return SchedulerDecision(
            tenant_shares=merged.tenant_shares,
            estimated=merged.tenant_throughput,
            solver_seconds=elapsed,
            job_type_shares=merged.job_type_shares,
        )

    def decision_key(self, tenants, profiles, capacities, *, active_jobs=None):
        # shares() is a pure function of (name, weight, profiles) per
        # tenant in order, plus capacities — the key is exactly those,
        # flat: each tenant is name, weight, (model, bytes) pairs, None
        key: List[object] = [_vector_bytes(capacities)]
        for tenant in tenants:
            profile = profiles[tenant.name]
            key += (tenant.name, float(tenant.weight))
            for model_name in sorted(profile) if len(profile) > 1 else profile:
                key += (model_name, _vector_bytes(profile[model_name]))
            key.append(None)
        return tuple(key)


class ElasticOEFScheduler(FairShareScheduler):
    """Job-level OEF for elastic workloads (§8 extension).

    Every active job becomes a virtual user (see
    :class:`repro.core.elastic.JobLevelOEF`), so jobs within a tenant get
    equal shares rather than round-robin time slices.  Pair this with
    elastic jobs (``Job.elastic = True``) so grants of any size are
    consumable.
    """

    def __init__(self, mode: str = "noncooperative"):
        if mode not in ("noncooperative", "cooperative"):
            raise SimulationError(f"unknown OEF mode {mode!r}")
        from repro.core.elastic import JobLevelOEF

        self._job_level = JobLevelOEF(mode=mode)
        self.mode = mode
        self.name = f"oef-elastic-{'noncoop' if mode == 'noncooperative' else 'coop'}"

    def shares(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        capacities: np.ndarray,
        *, active_jobs: ActiveJobs = None,
    ) -> SchedulerDecision:
        # job-level scheduling uses the jobs' own (profiled) speedups; the
        # tenant-level profiles parameter is accepted for interface parity
        start = time.perf_counter()
        allocation = self._job_level.allocate(tenants, capacities)
        elapsed = time.perf_counter() - start
        return SchedulerDecision(
            tenant_shares={
                name: share.copy()
                for name, share in allocation.tenant_shares.items()
            },
            estimated=dict(allocation.tenant_throughput),
            solver_seconds=elapsed,
        )

    # job-level scheduling reads the tenants' live job objects, which the
    # three decision_key arguments cannot capture — inherit the ``None``
    # default so every round solves cold (warm replay stays correct)


class SingleProfileScheduler(FairShareScheduler):
    """Adapter for baselines that take one speedup vector per tenant.

    Accepts either an :class:`Allocator` instance or a registry
    name/alias (with constructor ``options`` forwarded to the factory).
    """

    def __init__(self, allocator: Union[Allocator, str], **options):
        if isinstance(allocator, str):
            allocator = create_scheduler(allocator, **options)
        elif options:
            raise SimulationError(
                "constructor options require a scheduler name, not an instance"
            )
        self.allocator = allocator
        self.name = allocator.name

    def shares(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        capacities: np.ndarray,
        *, active_jobs: ActiveJobs = None,
    ) -> SchedulerDecision:
        rows: List[np.ndarray] = []
        names: List[str] = []
        for tenant in tenants:
            tenant_profiles = profiles[tenant.name]
            dominant = self._dominant_job_type(tenant, tenant_profiles, active_jobs)
            rows.append(tenant_profiles[dominant])
            names.append(tenant.name)
        matrix = SpeedupMatrix(
            np.vstack(rows), users=names, normalise=True, require_monotone=False
        )
        instance = ProblemInstance(matrix, capacities)
        start = time.perf_counter()
        allocation = self.allocator.allocate(instance)
        elapsed = time.perf_counter() - start
        shares = {
            name: allocation.matrix[row].copy() for row, name in enumerate(names)
        }
        estimated = {
            name: float(matrix.values[row] @ allocation.matrix[row])
            for row, name in enumerate(names)
        }
        return SchedulerDecision(
            tenant_shares=shares, estimated=estimated, solver_seconds=elapsed
        )

    def decision_key(self, tenants, profiles, capacities, *, active_jobs=None):
        # the baseline adapter reads one row per tenant — the *dominant*
        # job type's profile, which shifts with active-job counts — so
        # the key holds the selected (model, row) pairs, not the raw
        # profile dict: count changes that keep the dominant type fixed
        # still reuse the decision, count changes that flip it do not
        rows = []
        for tenant in tenants:
            measured = profiles[tenant.name]
            dominant = self._dominant_job_type(tenant, measured, active_jobs)
            rows.append((tenant.name, dominant, _vector_bytes(measured[dominant])))
        return tuple(rows), _vector_bytes(capacities)

    @staticmethod
    def _dominant_job_type(
        tenant: Tenant,
        tenant_profiles: Dict[str, np.ndarray],
        active_jobs: ActiveJobs = None,
    ) -> str:
        """The job type with the most active jobs (deterministic ties)."""
        jobs = (active_jobs or {}).get(tenant.name)
        counts = Counter(job.model_name for job in jobs or tenant.active_jobs())
        return max(
            tenant_profiles.keys(),
            key=lambda model: (counts.get(model, 0), model),
        )


#: Canonical OEF registry names -> the WeightedOEF mode behind the adapter.
_OEF_MODES = {"oef-noncoop": "noncooperative", "oef-coop": "cooperative"}
#: Elastic (job-level) adapter names; these are cluster-only personalities
#: with no instance-level Allocator, so they live outside the registry.
_ELASTIC_MODES = {
    "oef-elastic-noncoop": "noncooperative",
    "oef-elastic-coop": "cooperative",
}


def make_fair_share_scheduler(name: str, **options) -> FairShareScheduler:
    """Build a round-level scheduler from a registry name or alias.

    OEF names map to :class:`OEFScheduler` (weights + multi-job-type via
    :class:`~repro.core.weighted.WeightedOEF`), ``oef-elastic-*`` to
    :class:`ElasticOEFScheduler`, and every other registered allocator to
    a :class:`SingleProfileScheduler` wrapping it.  ``options`` forward to
    the chosen constructor.
    """
    if name in _ELASTIC_MODES:
        return ElasticOEFScheduler(mode=_ELASTIC_MODES[name], **options)
    canonical = resolve_scheduler_name(name)
    if canonical in _OEF_MODES:
        return OEFScheduler(mode=_OEF_MODES[canonical], **options)
    return SingleProfileScheduler(create_scheduler(canonical, **options))
