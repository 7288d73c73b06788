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

The public names below are listed once, under their home module, in
``_EXPORTS``; ``__all__`` is derived from it.  ``import repro`` loads no
submodule: the first use of a name imports its home module (PEP 562), so
``repro.Gateway`` costs the gateway stack and ``python -m repro --help``
costs no numpy.  Subpackages are not attributes until imported: write
``import repro.cluster`` (the cluster runtime), ``repro.workloads``
(workload generators) or ``repro.experiments`` (paper experiments).
"""

import importlib

__version__ = "5.14.0"

#: Home module -> the public names it exports.
_EXPORTS = {
    # the continuous-auditing layer (docs/auditing.md)
    "repro.auditor": (
        "AuditLedger", "AuditMiddleware", "AuditSampler", "AuditWorker",
        "replay_audit", "summarize_records",
    ),
    "repro.baselines": (
        "EfficiencyMaxAllocator", "GandivaFair", "Gavel", "MaxMinFairness",
    ),
    # data model, allocators and the Table-1 property checkers
    "repro.core": (
        "Allocation", "Allocator", "CooperativeOEF", "JobTypeSpec",
        "NonCooperativeOEF", "ProblemInstance", "PropertyReport",
        "SpeedupMatrix", "TenantSpec", "VirtualUserExpansion", "WeightedOEF",
        "audit_allocator", "check_envy_freeness", "check_pareto_efficiency",
        "check_sharing_incentive", "check_strategy_proofness",
        "optimal_efficiency_upper_bound",
    ),
    "repro.gateway": (
        "AdmissionMiddleware", "CacheMiddleware", "CacheStats",
        "CoalesceMiddleware", "Gateway", "MetricsMiddleware", "Middleware",
        "Overloaded", "Request", "RequestShed", "Response", "SolverMiddleware",
        "bare_pipeline", "default_pipeline", "instance_fingerprint",
    ),
    "repro.parallel": ("get_backend",),
    "repro.registry": (
        "SchedulerInfo", "SchedulerRegistry", "create_scheduler",
        "register_scheduler", "registry_rows", "resolve_scheduler_name",
        "scheduler_info", "scheduler_names",
    ),
    # dynamic workloads
    "repro.scenarios": (
        "Scenario", "ScenarioResult", "ScenarioRunner", "make_scenario",
        "scenario_names", "scenario_sweep",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import ``name``'s home module on first use and keep the object."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
