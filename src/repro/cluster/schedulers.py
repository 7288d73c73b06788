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
name or alias, with the evaluation's baseline options (§6.1.3), so the
simulator, scenario replays, the fleet, the experiments and the examples
all run one stack per name and never construct adapters by hand.
"""

from __future__ import annotations

import abc
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import Allocator
from repro.core.instance import ProblemInstance
from repro.core.speedup import SpeedupMatrix
from repro.core.virtual import CheckedRows
from repro.core.weighted import WeightedOEF
from repro.cluster.job import Job
from repro.cluster.tenant import Tenant
from repro.exceptions import SimulationError
from repro.registry import create_scheduler, resolve_scheduler_name

#: tenant name -> the round's active jobs (``None``: every unfinished job)
ActiveJobs = Optional[Mapping[str, Sequence[Job]]]
#: One tenant's part of a question: its decision-key part, what shares() keeps
TenantPart = Tuple[Hashable, object]


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
    #: The evaluation stack this scheduler runs with (§6.1.3): ``True``
    #: pairs it with the optimised placer and the §4.3 min-demand rule,
    #: ``False`` (the baselines) with the naive placer and plain
    #: deviation rounding.  :class:`~repro.cluster.simulator.ClusterSimulator`
    #: builds its default stack from this.
    oef_stack: bool = False

    @abc.abstractmethod
    def shares(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        capacities: np.ndarray,
        *, active_jobs: ActiveJobs = None,
        parts: Optional[Sequence[TenantPart]] = None,
    ) -> SchedulerDecision:
        """Compute fluid shares for the given round.

        ``profiles`` maps tenant name -> job type -> measured speedup
        vector (already normalised, slowest type first); ``active_jobs``
        the round's active jobs per tenant (``None``: all unfinished ones);
        ``parts`` the tenants' :meth:`tenant_part`, when the caller keeps them.
        """

    def tenant_part(
        self,
        tenant: Tenant,
        profile: Dict[str, np.ndarray],
        jobs: Optional[Sequence[Job]] = None,
    ) -> Optional[TenantPart]:
        """One tenant's part of :meth:`decision_key` and what :meth:`shares`
        keeps of it, or ``None`` (no key): a pure function of its name,
        weight, ``profile`` and active ``jobs``, kept while those hold."""
        return None

    def tenant_parts(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        active_jobs: ActiveJobs = None,
    ) -> List[Optional[TenantPart]]:
        """Each tenant's :meth:`tenant_part`, in order."""
        jobs = active_jobs or {}
        return [
            self.tenant_part(tenant, profiles[tenant.name], jobs.get(tenant.name))
            for tenant in tenants
        ]

    def decision_key(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        capacities: np.ndarray,
        *, active_jobs: ActiveJobs = None,
        parts: Optional[Sequence[TenantPart]] = None,
    ) -> Optional[Hashable]:
        """Content key over *everything* :meth:`shares` reads, or ``None``.

        The simulator's warm-start path memoizes :class:`SchedulerDecision`
        objects by this key: a repeat key is served from the previous
        solve instead of re-running the LP, which is sound exactly
        because the key covers every input the decision depends on and
        :meth:`shares` is deterministic.  A scheduler that returns a key
        hands its share arrays over read-only: the memo shares them with
        every later hit.  Return ``None`` (the default)
        when the decision depends on state beyond the three arguments —
        e.g. job-level scheduling — so every round solves cold.  A keyed
        scheduler's key is the capacities and each tenant's :meth:`tenant_part`.
        """
        return None

    def _content_key(self, tenants, profiles, capacities, active_jobs, parts) -> tuple:
        if parts is None:
            parts = self.tenant_parts(tenants, profiles, active_jobs)
        return (_vector_bytes(capacities), *[key for key, _kept in parts])


class OEFScheduler(FairShareScheduler):
    """OEF fair-share evaluator (either environment)."""

    oef_stack = True

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
        parts: Optional[Sequence[TenantPart]] = None,
    ) -> SchedulerDecision:
        if parts is None:
            parts = self.tenant_parts(tenants, profiles)
        rows = [checked for _key, checked in parts]
        start = time.perf_counter()
        merged = WeightedOEF(mode=self.mode).allocate(rows, capacities)
        elapsed = time.perf_counter() - start
        # the merged arrays are this call's own and read-only: handed over as they are
        return SchedulerDecision(
            tenant_shares=merged.tenant_shares,
            estimated=merged.tenant_throughput,
            solver_seconds=elapsed,
            job_type_shares=merged.job_type_shares,
        )

    def tenant_part(self, tenant, profile, jobs=None) -> TenantPart:
        # shares() is a pure function of each tenant's name, weight and
        # normalised rows (one per model, models sorted), in order, plus
        # capacities: the checked rows hold exactly those, so they are
        # both the key part and what shares() keeps
        checked = CheckedRows.of((tenant.name, tenant.weight, sorted(profile.items())))
        return checked, checked

    def decision_key(self, tenants, profiles, capacities, *, active_jobs=None, parts=None):
        return self._content_key(tenants, profiles, capacities, active_jobs, parts)


class ElasticOEFScheduler(FairShareScheduler):
    """Job-level OEF for elastic workloads (§8 extension).

    Every active job becomes a virtual user (see
    :class:`repro.core.elastic.JobLevelOEF`), so jobs within a tenant get
    equal shares rather than round-robin time slices.  Pair this with
    elastic jobs (``Job.elastic = True``) so grants of any size are
    consumable.
    """

    oef_stack = True

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
        parts: Optional[Sequence[TenantPart]] = None,
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

    Wraps an :class:`Allocator` instance; build one by name with
    :func:`make_fair_share_scheduler`.
    """

    def __init__(self, allocator: Allocator):
        self.allocator = allocator
        self.name = allocator.name

    def shares(
        self,
        tenants: Sequence[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        capacities: np.ndarray,
        *, active_jobs: ActiveJobs = None,
        parts: Optional[Sequence[TenantPart]] = None,
    ) -> SchedulerDecision:
        rows: List[np.ndarray] = []
        names: List[str] = []
        for tenant in tenants:
            tenant_profiles = profiles[tenant.name]
            jobs = (active_jobs or {}).get(tenant.name)
            dominant = self._dominant_job_type(tenant, tenant_profiles, jobs)
            rows.append(tenant_profiles[dominant])
            names.append(tenant.name)
        matrix = SpeedupMatrix(
            np.vstack(rows), users=names, normalise=True, require_monotone=False
        )
        instance = ProblemInstance(matrix, capacities)
        start = time.perf_counter()
        allocation = self.allocator.allocate(instance)
        elapsed = time.perf_counter() - start
        # one frozen copy, each tenant a row of it: memoizable as it is
        answer = allocation.matrix.copy()
        answer.setflags(write=False)
        shares = dict(zip(names, answer))
        estimated = {
            name: float(matrix.values[row] @ answer[row])
            for row, name in enumerate(names)
        }
        return SchedulerDecision(
            tenant_shares=shares, estimated=estimated, solver_seconds=elapsed
        )

    def tenant_part(self, tenant, profile, jobs=None) -> TenantPart:
        # the baseline adapter reads one row per tenant — the *dominant*
        # job type's profile, which shifts with active-job counts — so
        # the key holds the selected (model, row) pair, not the raw
        # profile dict: count changes that keep the dominant type fixed
        # still reuse the decision, count changes that flip it do not
        dominant = self._dominant_job_type(tenant, profile, jobs)
        return (tenant.name, dominant, _vector_bytes(profile[dominant])), None

    def decision_key(self, tenants, profiles, capacities, *, active_jobs=None, parts=None):
        return self._content_key(tenants, profiles, capacities, active_jobs, parts)

    @staticmethod
    def _dominant_job_type(
        tenant: Tenant,
        tenant_profiles: Dict[str, np.ndarray],
        jobs: Optional[Sequence[Job]] = None,
    ) -> str:
        """The job type with the most of ``jobs`` (``None``: the tenant's
        unfinished jobs), deterministic ties."""
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
#: Non-default constructor options the evaluation setup (§6.1.3) runs the
#: baselines with, keyed by canonical registry name.  Quarter-GPU trading
#: lots: Gandiva_fair migrates physical devices but time-slices them, so
#: trades below a fraction of a device cannot execute and tenants keep
#: mixed residual holdings.  Instance-level allocators
#: (:func:`~repro.registry.create_scheduler`) keep the class defaults.
_BASELINE_OPTIONS: Dict[str, Dict[str, object]] = {
    "gandiva-fair": {"trade_lot": 0.25},
    "gavel": {"slack": 0.01},
}


def make_fair_share_scheduler(name: str, **options) -> FairShareScheduler:
    """Build a round-level scheduler from a registry name or alias.

    OEF names map to :class:`OEFScheduler` (weights + multi-job-type via
    :class:`~repro.core.weighted.WeightedOEF`), ``oef-elastic-*`` to
    :class:`ElasticOEFScheduler`, and every other registered allocator to
    a :class:`SingleProfileScheduler` wrapping it, built with its §6.1.3
    options.  ``options`` forward to the chosen constructor and win over
    the §6.1.3 ones.
    """
    if name in _ELASTIC_MODES:
        return ElasticOEFScheduler(mode=_ELASTIC_MODES[name], **options)
    canonical = resolve_scheduler_name(name)
    if canonical in _OEF_MODES:
        return OEFScheduler(mode=_OEF_MODES[canonical], **options)
    options = {**_BASELINE_OPTIONS.get(canonical, {}), **options}
    return SingleProfileScheduler(create_scheduler(canonical, **options))
