"""OEF: Optimal Resource Efficiency with Fairness in Heterogeneous GPU Clusters.

A full reproduction of the Middleware '24 paper by Mo, Xu, and Lau.

The one entry point is the middleware-pipeline gateway::

    from repro import Gateway, default_pipeline

    gateway = Gateway(default_pipeline())
    response = gateway.solve(instance, "oef-coop")   # memoized by content hash
    response.disposition                             # "cold" / "cache-hit" / ...
    gateway.use(my_stage, before="solver")           # extend the pipeline
    report = gateway.audit(instance, "oef-noncoop")  # registry audit defaults
    rows = gateway.compare(instance)                 # every registered scheduler

Allocators self-register metadata (canonical name, aliases, family, audit
policy, capability flags) via :func:`repro.registry.register_scheduler`;
``repro list-schedulers`` on the command line renders the registry.

The public API re-exports the pieces a downstream user needs:

* gateway -- :class:`Gateway` (``solve`` / ``solve_batch`` / ``audit`` /
  ``compare`` / ``frontier``), :class:`Request`, :class:`Response`,
  :class:`CacheStats`;
* registry -- :func:`create_scheduler`, :func:`scheduler_names`,
  :func:`scheduler_info`, :func:`register_scheduler`,
  :class:`SchedulerInfo`;
* data model -- :class:`SpeedupMatrix`, :class:`ProblemInstance`,
  :class:`Allocation`;
* allocators -- :class:`NonCooperativeOEF`, :class:`CooperativeOEF`,
  :class:`WeightedOEF` and the baselines (:class:`MaxMinFairness`,
  :class:`GandivaFair`, :class:`Gavel`);
* fairness auditors -- :func:`audit_allocator` and the individual property
  checkers, plus the continuous-auditing layer (:class:`AuditMiddleware`,
  :class:`AuditWorker`, :class:`AuditLedger`, :func:`replay_audit`; see
  :mod:`repro.auditor` and ``docs/auditing.md``);
* dynamic workloads -- :class:`Scenario`, :class:`ScenarioRunner`,
  :class:`ScenarioResult`, :func:`make_scenario`, :func:`scenario_names`,
  :func:`run_scenario`, :func:`scenario_sweep` (see :mod:`repro.scenarios`);
* the cluster runtime lives in :mod:`repro.cluster`, workload generators in
  :mod:`repro.workloads`, and paper experiments in :mod:`repro.experiments`.
"""

from repro.auditor import (
    AuditLedger,
    AuditMiddleware,
    AuditSampler,
    AuditWorker,
    replay_audit,
    summarize_records,
)
from repro.baselines import EfficiencyMaxAllocator, GandivaFair, Gavel, MaxMinFairness
from repro.core import (
    Allocation,
    Allocator,
    CooperativeOEF,
    JobTypeSpec,
    NonCooperativeOEF,
    ProblemInstance,
    PropertyReport,
    SpeedupMatrix,
    TenantSpec,
    VirtualUserExpansion,
    WeightedOEF,
    audit_allocator,
    check_envy_freeness,
    check_pareto_efficiency,
    check_sharing_incentive,
    check_strategy_proofness,
    optimal_efficiency_upper_bound,
)
from repro.gateway import (
    AdmissionMiddleware,
    CacheMiddleware,
    CacheStats,
    CoalesceMiddleware,
    Gateway,
    MetricsMiddleware,
    Middleware,
    Overloaded,
    Request,
    RequestShed,
    Response,
    SolverMiddleware,
    bare_pipeline,
    default_pipeline,
    instance_fingerprint,
)
from repro.parallel import get_backend
from repro.registry import (
    SchedulerInfo,
    SchedulerRegistry,
    create_scheduler,
    register_scheduler,
    registry_rows,
    resolve_scheduler_name,
    scheduler_info,
    scheduler_names,
)
from repro.scenarios import (
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    make_scenario,
    run_scenario,
    scenario_names,
    scenario_sweep,
)

__version__ = "5.3.0"

__all__ = [
    "AdmissionMiddleware",
    "Allocation",
    "Allocator",
    "AuditLedger",
    "AuditMiddleware",
    "AuditSampler",
    "AuditWorker",
    "CacheMiddleware",
    "CacheStats",
    "CoalesceMiddleware",
    "Gateway",
    "MetricsMiddleware",
    "Middleware",
    "Overloaded",
    "Request",
    "RequestShed",
    "Response",
    "SolverMiddleware",
    "bare_pipeline",
    "default_pipeline",
    "CooperativeOEF",
    "EfficiencyMaxAllocator",
    "GandivaFair",
    "Gavel",
    "JobTypeSpec",
    "MaxMinFairness",
    "NonCooperativeOEF",
    "ProblemInstance",
    "PropertyReport",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "SchedulerInfo",
    "SchedulerRegistry",
    "SpeedupMatrix",
    "TenantSpec",
    "VirtualUserExpansion",
    "WeightedOEF",
    "audit_allocator",
    "check_envy_freeness",
    "check_pareto_efficiency",
    "check_sharing_incentive",
    "check_strategy_proofness",
    "create_scheduler",
    "get_backend",
    "instance_fingerprint",
    "make_scenario",
    "optimal_efficiency_upper_bound",
    "register_scheduler",
    "registry_rows",
    "replay_audit",
    "resolve_scheduler_name",
    "run_scenario",
    "scenario_names",
    "scenario_sweep",
    "scheduler_info",
    "scheduler_names",
    "summarize_records",
]
