"""The Gateway: one stable entry point over a composable pipeline.

``Gateway(pipeline)`` composes a list of
:class:`~repro.gateway.middleware.Middleware` stages into a single
request handler and is the only front door for every solve, audit,
comparison and frontier sweep in the repo.  :func:`default_pipeline`
builds the full stack
(admission → metrics → coalesce → cache → solver);
:func:`bare_pipeline` is just the terminal solver, useful for
differential testing (``repro solve --pipeline bare``).

Usage::

    from repro.gateway import Gateway, Request, default_pipeline

    gateway = Gateway(default_pipeline())
    response = gateway.solve(instance, "oef-coop")       # alias ok
    response = gateway.solve(Request(instance, "max-min", priority=1))
    gateway.use(MyLoggingStage(), before="solver")       # extend it

Third-party stages implement ``handle(request, next)`` and slot in
anywhere via :meth:`Gateway.use` — see ``docs/middleware.md`` and
``examples/custom_middleware.py``.

Batch solves
------------
:meth:`Gateway.solve_batch` is the pipeline, fanned out: every request
is normalised up front (an unknown scheduler or an uncacheable option
raises before any work starts) and then dispatched through the very
same stages — in order, or over a thread pool.  Nothing is
re-implemented for batches: the coalesce stage dedupes in-flight
duplicates, the cache stage merges results (a repeated batch is all
hits), and admission, deadlines, the audit tap and
:meth:`Gateway.use` stages apply to every item.  Threads are the only
fan-out for solves — the LP solves release the GIL, and a process pool
could share none of the pipeline's state — so ``backend="process"``
raises.

Timings
-------
Every dispatch times each stage (inclusive: time at or below the stage)
and attaches the result to ``Response.stage_timings``; when a
:class:`~repro.gateway.middleware.MetricsMiddleware` is present the same
samples feed its per-stage histograms, which ``GET /metrics`` renders.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.allocation import Allocation
from repro.core.analysis import FrontierPoint, compare_allocators, frontier_point
from repro.core.base import Allocator
from repro.core.properties import PropertyReport, audit_allocator
from repro.exceptions import ValidationError
from repro.gateway.envelope import (
    Request,
    RequestShed,
    Response,
    instance_fingerprint,
    options_key,
)
from repro.gateway.middleware import (
    AdmissionMiddleware,
    CacheMiddleware,
    CacheStats,
    CoalesceMiddleware,
    Handler,
    MetricsMiddleware,
    Middleware,
    SolverMiddleware,
    derive_key,
)
from repro.parallel import BackendSpec, ProcessBackend, ThreadBackend, get_backend
from repro.registry import SchedulerRegistry

#: Sentinel: "use the registry default" for audit overrides.
_USE_REGISTRY_DEFAULT = object()


class _GatewayAllocator(Allocator):
    """Allocator adapter that routes ``allocate()`` through a gateway.

    Handed to :func:`audit_allocator` / :func:`compare_allocators` so the
    honest solve — and every perturbed strategy-proofness solve — is
    memoized across audits, comparisons, and plain ``solve`` calls.
    """

    def __init__(self, gateway: "Gateway", scheduler: str, options):
        self._gateway = gateway
        self._options = options
        self.name = gateway.registry.resolve(scheduler)

    def allocate(self, instance) -> Allocation:
        response = self._gateway.solve(instance, self.name, options=self._options)
        if not response.ok:  # a bounded/deadline admission stage refused
            raise RequestShed(response)
        return response.allocation


def default_pipeline(
    registry: Optional[SchedulerRegistry] = None,
    *,
    max_cache_entries: int = 4096,
    max_in_flight: Optional[int] = None,
    metrics: bool = True,
    audit: Union[None, float, "Middleware"] = None,
) -> List[Middleware]:
    """The full middleware stack, outermost first.

    Order rationale (the stage-ordering contract, see
    ``docs/middleware.md``): admission sheds before any work happens;
    metrics time everything below; the audit tap (when enabled) sits
    below metrics and above coalesce/cache so it observes every
    admitted response, cache hits included; coalesce sits above the
    cache so a coalesced follower's retry is a cache hit; the solver
    terminates the chain.

    ``audit`` enables continuous fairness auditing
    (:mod:`repro.auditor`): pass a sampling rate in ``[0, 1]`` for a
    stage with default worker/ledger wiring, or a preconfigured
    :class:`~repro.auditor.middleware.AuditMiddleware` instance.
    """
    stages: List[Middleware] = [AdmissionMiddleware(max_in_flight=max_in_flight)]
    if metrics:
        stages.append(MetricsMiddleware())
    if audit is not None:
        from repro.auditor.middleware import AuditMiddleware

        if isinstance(audit, Middleware):
            stages.append(audit)
        else:
            stages.append(AuditMiddleware(float(audit), registry=registry))
    stages.extend(
        [
            CoalesceMiddleware(registry),
            CacheMiddleware(registry, max_entries=max_cache_entries),
            SolverMiddleware(registry),
        ]
    )
    return stages


def bare_pipeline(registry: Optional[SchedulerRegistry] = None) -> List[Middleware]:
    """Just the terminal solver: no caching, no shedding, no telemetry."""
    return [SolverMiddleware(registry)]


class Gateway:
    """Composable request pipeline behind one stable ``solve`` surface."""

    def __init__(
        self,
        pipeline: Optional[Sequence[Middleware]] = None,
        *,
        registry: Optional[SchedulerRegistry] = None,
    ):
        self._stages: List[Middleware] = list(
            pipeline if pipeline is not None else default_pipeline(registry)
        )
        if not self._stages:
            raise ValueError("a gateway needs at least one pipeline stage")
        if registry is None:
            solver = self.find(SolverMiddleware)
            if solver is not None:
                registry = solver.registry
        if registry is None:
            from repro.registry import REGISTRY

            registry = REGISTRY
        self.registry = registry
        self._local = threading.local()
        self._recompile()

    # -- pipeline management -----------------------------------------------
    @property
    def pipeline(self) -> Tuple[Middleware, ...]:
        return tuple(self._stages)

    def find(self, stage: Union[type, str]) -> Optional[Middleware]:
        """First pipeline stage matching a class or stage name."""
        for candidate in self._stages:
            if isinstance(stage, str):
                if candidate.name == stage:
                    return candidate
            elif isinstance(candidate, stage):
                return candidate
        return None

    def use(
        self,
        middleware: Middleware,
        *,
        before: Union[type, str, Middleware, None] = None,
        after: Union[type, str, Middleware, None] = None,
    ) -> "Gateway":
        """Insert a stage into the pipeline (returns ``self`` for chaining).

        ``before``/``after`` anchor the insertion point by stage name,
        class, or instance; with neither, the stage lands just above the
        terminal stage (the last position that still runs on cache
        misses).  Exactly one anchor may be given.  An unknown anchor
        raises ``ValueError``, as does inserting the same stage
        *instance* twice — stages hold per-stage state (locks, counters),
        so one instance appearing at two pipeline positions would
        double-count every request.
        """
        if before is not None and after is not None:
            raise ValueError("pass at most one of before=/after=")
        if any(candidate is middleware for candidate in self._stages):
            raise ValueError(
                f"stage {middleware.name!r} is already in the pipeline; "
                "construct a second instance to insert it again"
            )
        if before is None and after is None:
            index = max(len(self._stages) - 1, 0)
        else:
            anchor = before if before is not None else after
            index = self._index_of(anchor)
            if after is not None:
                index += 1
        self._stages.insert(index, middleware)
        self._recompile()
        return self

    def remove(self, stage: Union[type, str, Middleware]) -> Middleware:
        """Remove (and return) the first matching stage."""
        index = self._index_of(stage)
        removed = self._stages.pop(index)
        self._recompile()
        return removed

    def _index_of(self, stage: Union[type, str, Middleware]) -> int:
        for index, candidate in enumerate(self._stages):
            if candidate is stage:
                return index
            if isinstance(stage, str) and candidate.name == stage:
                return index
            if isinstance(stage, type) and isinstance(candidate, stage):
                return index
        raise ValueError(f"no pipeline stage matches {stage!r}")

    def _recompile(self) -> None:
        def terminal_guard(request: Request) -> Response:
            raise RuntimeError(
                "gateway pipeline ended without a terminal stage answering; "
                "append a SolverMiddleware (or another terminal) to the "
                "pipeline"
            )

        local = self._local

        def wrap(stage: Middleware, nxt: Handler) -> Handler:
            handle = stage.handle
            stage_name = stage.name

            def handler(request: Request) -> Response:
                start = time.perf_counter()
                try:
                    return handle(request, nxt)
                finally:
                    frames = getattr(local, "frames", None)
                    if frames:
                        frames[-1].append(
                            (stage_name, time.perf_counter() - start)
                        )

            return handler

        handler: Handler = terminal_guard
        for stage in reversed(self._stages):
            handler = wrap(stage, handler)
        self._entry = handler
        self._metrics = self.find(MetricsMiddleware)
        self._cache = self.find(CacheMiddleware)

    def describe(self) -> List[Dict[str, object]]:
        """One capability row per stage, pipeline order, for the CLI."""
        rows = []
        for position, stage in enumerate(self._stages):
            row: Dict[str, object] = {"#": position}
            row.update(stage.describe())
            rows.append(row)
        return rows

    # -- dispatch ------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Run one request through the pipeline exactly as given.

        No normalisation happens here: the scheduler name is not
        resolved and no cache key is derived (the stages derive what
        they need).  Most callers want :meth:`solve`.
        """
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        frames.append([])
        try:
            response = self._entry(request)
        finally:
            collected = frames.pop()
        timings = tuple(reversed(collected))
        if timings:
            # the chain built this response for this call; no second copy
            object.__setattr__(response, "stage_timings", timings)
            if self._metrics is not None:
                self._metrics.observe_stages(timings)
                if all(name != self._metrics.name for name, _ in timings):
                    # a stage above metrics answered (e.g. admission shed):
                    # record the disposition here so shed-* histograms exist
                    self._metrics.record(response.disposition, timings[0][1])
        return response

    def solve(
        self,
        instance: Union[Request, Any],
        scheduler: str = "oef-coop",
        *,
        options: Optional[Mapping[str, object]] = None,
        use_cache: bool = True,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> Response:
        """Normalise one request and dispatch it.

        Accepts either a prebuilt :class:`Request` (combining one with
        any non-default argument raises ``TypeError``) or the classic
        ``(instance, scheduler, options)`` shape.  Normalisation
        resolves the scheduler alias to its canonical name and
        precomputes the cache key once, so every stage below shares the
        same identity without re-hashing — uncacheable option values
        raise ``TypeError`` here, before any solving starts.
        """
        if isinstance(instance, Request):
            if (
                scheduler != "oef-coop"
                or options is not None
                or not use_cache
                or priority
                or deadline is not None
            ):
                raise TypeError(
                    "a prebuilt Request carries its own scheduler, options "
                    "and directives; set them on the Request, not as "
                    "arguments to solve()"
                )
            request = instance
        else:
            request = Request(
                instance=instance,
                scheduler=scheduler,
                options=dict(options or {}),
                use_cache=use_cache,
                priority=priority,
                deadline=deadline,
            )
        return self.dispatch(self._normalise(request))

    def _normalise(self, request: Request) -> Request:
        """Canonical scheduler name, fingerprint and cache key, derived once."""
        name = self.registry.resolve(request.scheduler)
        fingerprint = request.fingerprint or instance_fingerprint(request.instance)
        key = request.key
        if key is None and request.use_cache:
            # inlined derive_key() with the parts already at hand
            key = (fingerprint, name, options_key(request.options))
        if (name, key, fingerprint) == (
            request.scheduler, request.key, request.fingerprint
        ):
            return request  # already canonical (``parse_solve`` builds these)
        return replace(request, scheduler=name, key=key, fingerprint=fingerprint)

    def holds(self, request: Request) -> bool:
        """Does the cache stage hold ``request``'s key?  Counts nothing, keeps
        the LRU order; the entry may be gone by the time a dispatch looks."""
        if self._cache is None or not request.use_cache:
            return False
        key = request.key
        if key is None:
            key = derive_key(request, self.registry)
        return key in self._cache

    # -- batch solves --------------------------------------------------------
    def solve_batch(
        self,
        requests: Sequence[Union[Request, Tuple[Any, str, Mapping[str, object]]]],
        *,
        backend: Optional[BackendSpec] = None,
        max_workers: Optional[int] = None,
    ) -> List[Response]:
        """Solve many requests through the pipeline, in request order.

        ``requests`` is a sequence of :class:`Request` objects (or bare
        ``(instance, scheduler, options)`` triples).  All of them are
        normalised before any is solved, so an unknown scheduler or an
        uncacheable option raises up front.  Each then takes the same
        path as :meth:`solve` — every stage applies to every item, and a
        shed item comes back as a typed :class:`Overloaded` in its slot.

        ``backend`` picks how the dispatches run: ``None``/``"serial"``
        in order on the calling thread, ``"thread"`` over a pool of
        ``max_workers`` threads, ``"auto"`` threads when there is more
        than one core and more than one request.  ``"process"`` raises
        :class:`~repro.exceptions.ValidationError`: the stages' state
        (cache, in-flight table, admission bound) lives in this process.
        """
        normalised = [
            self._normalise(
                item
                if isinstance(item, Request)
                else Request(instance=item[0], scheduler=item[1], options=dict(item[2]))
            )
            for item in requests
        ]
        resolved = get_backend(
            "serial" if backend is None else backend,
            max_workers,
            task_count=len(normalised),
        )
        if isinstance(resolved, ProcessBackend):
            if str(backend).lower() != "auto":
                raise ValidationError(
                    "solves run through one in-process pipeline (cache, "
                    "coalesce, admission) and cannot fan out across "
                    'processes; use backend="thread"'
                )
            resolved = ThreadBackend(resolved.max_workers)
        return resolved.map(self.dispatch, normalised)

    # -- audits and summaries ------------------------------------------------
    def allocator(self, scheduler: str, **options) -> Allocator:
        """A cache-backed :class:`Allocator` view of one scheduler.

        ``allocate()`` raises :class:`RequestShed` (carrying the
        :class:`Overloaded` response) when admission refuses the solve.
        """
        return _GatewayAllocator(self, scheduler, options)

    def audit(
        self,
        instance,
        scheduler: str = "oef-coop",
        *,
        sp_trials: int = 4,
        seed: int = 0,
        pe_within=_USE_REGISTRY_DEFAULT,
        efficiency_constraint=_USE_REGISTRY_DEFAULT,
        pe_tolerance=_USE_REGISTRY_DEFAULT,
        options: Optional[Mapping[str, object]] = None,
    ) -> PropertyReport:
        """Table-1 property audit with registry-sourced policy defaults.

        ``pe_within`` / ``efficiency_constraint`` / ``pe_tolerance``
        default to the scheduler's registered audit configuration;
        explicit arguments (including a ``None`` domain) win.  Solves
        memoize through the cache stage.
        """
        info = self.registry.info(scheduler)
        if pe_within is _USE_REGISTRY_DEFAULT:
            pe_within = info.pe_within
        if efficiency_constraint is _USE_REGISTRY_DEFAULT:
            efficiency_constraint = info.efficiency_constraint
        if pe_tolerance is _USE_REGISTRY_DEFAULT:
            pe_tolerance = info.pe_tolerance
        return audit_allocator(
            self.allocator(info.name, **(options or {})),
            instance,
            efficiency_constraint=efficiency_constraint,
            sp_trials=sp_trials,
            seed=seed,
            pe_within=pe_within,
            pe_tolerance=pe_tolerance,
        )

    def compare(
        self,
        instance,
        schedulers: Optional[Sequence[str]] = None,
        *,
        backend: Optional[BackendSpec] = None,
        max_workers: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """One summary row per scheduler (default: every registered one).

        With ``backend`` set, the solves fan out through
        :meth:`solve_batch` first; row assembly then reads the warmed
        cache, so parallel and serial comparisons produce identical rows.
        """
        names = list(schedulers) if schedulers is not None else self.registry.names()
        if backend is not None:
            self.solve_batch(
                [Request(instance=instance, scheduler=name) for name in names],
                backend=backend,
                max_workers=max_workers,
            )
        return compare_allocators([self.allocator(name) for name in names], instance)

    def frontier(
        self,
        instance,
        alphas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
        backend: Optional[BackendSpec] = None,
        *,
        max_workers: Optional[int] = None,
    ) -> List[FrontierPoint]:
        """The efficiency–fairness frontier sweep (memoized per alpha grid).

        Each alpha is an independent epsilon-constraint LP; ``backend``
        fans them out.  The memo lives in the cache stage's auxiliary
        store (same LRU bound and counters), keyed on the instance and
        alphas, never on how it was executed.
        """
        alpha_key = tuple(float(alpha) for alpha in alphas)
        key = ("frontier", instance_fingerprint(instance), alpha_key)
        cache = self._cache
        if cache is not None:
            cached = cache.aux_lookup(key)
            if cached is not None:
                return list(cached)
        solve_alpha = partial(frontier_point, instance)
        resolved = get_backend(
            backend if backend is not None else "serial",
            max_workers,
            task_count=len(alpha_key),
            payload=solve_alpha,
        )
        points = resolved.map(solve_alpha, alpha_key)
        if cache is not None:
            cache.aux_store(key, list(points))
        return points

    # -- telemetry -----------------------------------------------------------
    def cache_info(self) -> CacheStats:
        """The cache stage's :class:`CacheStats` (zeros without one)."""
        if self._cache is None:
            return CacheStats(hits=0, misses=0, entries=0, max_entries=0)
        return CacheStats(**self._cache.stats())

    def metrics_snapshot(self) -> List[Dict[str, object]]:
        """The metrics stage's histogram rows ([] without one)."""
        return [] if self._metrics is None else self._metrics.snapshot()

    def clear_cache(self) -> None:
        """Reset the cache stage (entries and counters)."""
        if self._cache is not None:
            self._cache.reset()

    def reset(self) -> None:
        """Reset every stage (caches, counters, histograms)."""
        for stage in self._stages:
            stage.reset()

    def __repr__(self) -> str:
        names = " -> ".join(stage.name for stage in self._stages)
        return f"Gateway({names})"


__all__ = [
    "Gateway",
    "bare_pipeline",
    "default_pipeline",
]
