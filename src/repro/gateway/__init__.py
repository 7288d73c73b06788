"""repro.gateway: the middleware-pipeline service API.

The paper models the scheduler as a *middleware service*; this package
is that service's front door.  A :class:`Gateway` composes an explicit
chain of :class:`Middleware` stages — admission control, latency
metrics, in-flight coalescing, the content-hash cache, and the terminal
registry solver — behind a stable, typed
:class:`Request`/:class:`Response` envelope.  Stages can be reordered,
disabled, or extended (``Gateway.use(my_stage, before="solver")``)
without touching the service internals, and audits, comparisons and
frontier sweeps (:meth:`Gateway.audit` / ``compare`` / ``frontier``)
solve through the same chain.

See ``docs/middleware.md`` for the pipeline diagram, the stage-ordering
contract, and a guide to writing custom stages.

Quick start::

    from repro.gateway import Gateway, default_pipeline

    gateway = Gateway(default_pipeline())
    response = gateway.solve(instance, "oef-coop")
    response.allocation          # the Allocation
    response.disposition         # "cold" | "cache-hit" | "shed-..."
    gateway.cache_info()         # CacheStats
"""

from repro.gateway.envelope import (
    DISPOSITIONS,
    Overloaded,
    Request,
    RequestShed,
    Response,
    deadline_in,
    instance_fingerprint,
    options_key,
)
from repro.gateway.gateway import Gateway, bare_pipeline, default_pipeline
from repro.gateway.middleware import (
    AdmissionMiddleware,
    CacheMiddleware,
    CacheStats,
    CoalesceMiddleware,
    MetricsMiddleware,
    Middleware,
    SolverMiddleware,
)

__all__ = [
    "AdmissionMiddleware",
    "CacheMiddleware",
    "CacheStats",
    "CoalesceMiddleware",
    "DISPOSITIONS",
    "Gateway",
    "MetricsMiddleware",
    "Middleware",
    "Overloaded",
    "Request",
    "RequestShed",
    "Response",
    "SolverMiddleware",
    "bare_pipeline",
    "deadline_in",
    "default_pipeline",
    "instance_fingerprint",
    "options_key",
]
