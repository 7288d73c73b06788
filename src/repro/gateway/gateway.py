"""The Gateway: one stable entry point over a composable pipeline.

``Gateway(pipeline)`` composes a list of
:class:`~repro.gateway.middleware.Middleware` stages into a single
request handler and is the only front door for every solve, audit,
comparison and frontier sweep in the repo.  :func:`default_pipeline`
builds the full stack
(admission → metrics → coalesce → warm-start → cache → solver);
:func:`bare_pipeline` is just the terminal solver, useful for
differential testing (``repro solve --pipeline bare``) and as the
baseline in ``BENCH_gateway.json``.

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
:meth:`Gateway.solve_batch` keeps PR 2's parallel engine: with an
execution backend it plans the batch against the pipeline's cache stage
(only cache-missing work runs), dedupes identical requests through the
coalesce stage's identity rule, fans the remainder out through
capability-matched lanes (process pool / thread fallback / in-line
serial, degrading with a :class:`RuntimeWarning` instead of crashing),
and merges worker results back into the cache — so a repeated batch is
~100% hits on any backend.  Serial batches simply dispatch each request
through the full pipeline.

Timings
-------
Every dispatch times each stage (inclusive: time at or below the stage)
and attaches the result to ``Response.stage_timings``; when a
:class:`~repro.gateway.middleware.MetricsMiddleware` is present the same
samples feed its per-stage histograms, which ``repro bench`` renders.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import OrderedDict
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

import numpy as np

from repro.core.allocation import Allocation
from repro.core.analysis import FrontierPoint, compare_allocators, frontier_point
from repro.core.base import Allocator
from repro.core.properties import PropertyReport, audit_allocator
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
    WarmStartMiddleware,
    derive_key,
)
from repro.parallel import (
    BackendSpec,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
    probe_picklable,
)
from repro.registry import SchedulerRegistry

#: Sentinel: "use the registry default" for audit overrides.
_USE_REGISTRY_DEFAULT = object()


def _solve_payload(payload: tuple) -> Tuple[np.ndarray, Optional[str], float]:
    """Worker-side solve: construct the scheduler and run one allocation.

    Module-level (and fed only picklable payloads) so it can cross a
    process boundary; thread and serial lanes reuse it unchanged.  Only
    the allocation matrix travels back — the parent re-wraps it in an
    :class:`Allocation` against its own instance object and merges it
    into the shared cache.
    """
    instance, factory, options = payload
    start = time.perf_counter()
    allocation = factory(**options).allocate(instance)
    elapsed = time.perf_counter() - start
    return allocation.matrix, allocation.allocator_name, elapsed


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
    cache so a coalesced follower's retry is a cache hit; warm-start
    sits above the cache so exact-tier hits still carry a chainable LP
    state; the solver terminates the chain.

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
            WarmStartMiddleware(registry),
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
        resolved and no cache key is derived, so custom pipelines with
        non-allocation payloads (the simulator's decision pipeline) can
        use the machinery untouched.  Most callers want :meth:`solve`.
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
            response = replace(response, stage_timings=timings)
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
        incremental: bool = False,
        prev_result: Optional[Any] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> Response:
        """Normalise one request and dispatch it.

        Accepts either a prebuilt :class:`Request` (combining one with
        any non-default argument raises ``TypeError``) or the classic
        ``(instance, scheduler, options)`` shape; ``incremental=True``
        with ``prev_result`` is the warm re-solve of a drifted instance.
        Normalisation resolves the scheduler alias to its
        canonical name and precomputes the cache key once, so every
        stage below shares the same identity without re-hashing —
        uncacheable option values raise ``TypeError`` here, before any
        solving starts.
        """
        if isinstance(instance, Request):
            if (
                scheduler != "oef-coop"
                or options is not None
                or not use_cache
                or incremental
                or prev_result is not None
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
                incremental=incremental,
                prev_result=prev_result,
                priority=priority,
                deadline=deadline,
            )
        name = self.registry.resolve(request.scheduler)
        fingerprint = request.fingerprint or instance_fingerprint(request.instance)
        key = request.key
        if key is None and request.use_cache:
            # inlined derive_key() with the parts already at hand (one
            # dataclasses.replace on the hot path instead of two)
            key = (fingerprint, name, options_key(request.options))
        request = replace(
            request, scheduler=name, key=key, fingerprint=fingerprint
        )
        return self.dispatch(request)

    # -- batch solves --------------------------------------------------------
    def solve_batch(
        self,
        requests: Sequence[Union[Request, Tuple[Any, str, Mapping[str, object]]]],
        *,
        backend: Optional[BackendSpec] = None,
        max_workers: Optional[int] = None,
        lp_batch: bool = False,
    ) -> List[Response]:
        """Solve many requests, optionally fanned out across workers.

        ``requests`` is a sequence of :class:`Request` objects (or bare
        ``(instance, scheduler, options)`` triples).  With ``backend``
        unset or serial, each request dispatches through the full
        pipeline in order.  Otherwise the cache-missing solves fan out
        through capability-matched lanes and merge back into the cache
        stage; see the module docstring for the contract.

        ``lp_batch=True`` opts in to the *composed-LP* executor: the
        cache-missing requests whose schedulers expose the batch
        protocol (``compile_form``/``allocation_from_values``) are
        stacked block-diagonally and solved in one vectorized pass via
        :func:`repro.solver.solve_forms`, which certifies or re-solves
        each block so answers match the serial path exactly.  The
        composed solve is itself the batched execution, so it supersedes
        worker fan-out for the lane-eligible requests; schedulers
        without the protocol (or instances it declines, e.g. the
        cutting-plane regime) solve solo as usual.

        Semantics the lane planner cannot replicate always dispatch
        through the full pipeline instead of a lane, so a batch answers
        exactly like the equivalent serial calls on every backend:
        requests that are ``incremental`` (warm tiers) or carry a
        ``deadline`` (admission shedding) are routed individually, and a
        pipeline containing stages beyond the built-in transparent set —
        a bounded :class:`AdmissionMiddleware` or any user-installed
        stage — dispatches the *whole* batch through the chain (with a
        :class:`RuntimeWarning`, since the fan-out is forfeited).
        Custom ``Request.key`` values are a :meth:`dispatch`-level
        feature; the lane planner derives its own content identity.
        """
        normalised = [
            item
            if isinstance(item, Request)
            else Request(instance=item[0], scheduler=item[1], options=dict(item[2]))
            for item in requests
        ]
        resolved = (
            None
            if backend is None
            else get_backend(backend, max_workers, task_count=len(normalised))
        )
        use_lanes = resolved is not None and not isinstance(resolved, SerialBackend)
        if not use_lanes and not lp_batch:
            return [self.solve(request) for request in normalised]
        if not self._lanes_replicate_pipeline():
            warnings.warn(
                "the pipeline contains stages the batch planner cannot "
                "replicate (a bounded admission stage or custom "
                "middleware); dispatching the batch through the full "
                "pipeline without worker fan-out",
                RuntimeWarning,
                stacklevel=2,
            )
            return [self.solve(request) for request in normalised]
        # split off requests whose pipeline semantics cannot fan out
        lane_items = [
            (index, request)
            for index, request in enumerate(normalised)
            if not request.incremental and request.deadline is None
        ]
        results: List[Optional[Response]] = [None] * len(normalised)
        if lane_items:
            lane_requests = [request for _, request in lane_items]
            lane_responses = (
                self._solve_batch_lp(lane_requests)
                if lp_batch
                else self._solve_batch_parallel(lane_requests, resolved)
            )
            for (index, _), response in zip(lane_items, lane_responses):
                results[index] = response
        for index, request in enumerate(normalised):
            if results[index] is None:
                # full-pipeline dispatch: admission, warm tiers, coalesce
                # all apply; may hit entries the lanes just merged in
                results[index] = self.solve(request)
        return results

    def _lanes_replicate_pipeline(self) -> bool:
        """True when the batch lanes honour every stage's semantics.

        The lane planner replicates exactly the built-in transparent
        stages (metrics, coalesce dedup, warm-start for non-incremental
        work, cache lookup/merge) over a terminal solver; an admission
        stage with an in-flight bound, or any stage outside the built-in
        set, would be silently bypassed — those pipelines dispatch
        per-request instead.
        """
        from repro.auditor.middleware import AuditMiddleware

        # exact types: a subclass (e.g. a custom cache entry format) may
        # change semantics the lanes would silently violate.  The audit
        # tap is a pure observer, so lanes may bypass it: batch fan-out
        # responses go unsampled (they still warm the cache the audited
        # singleton traffic reads).
        for stage in self._stages[:-1]:
            if type(stage) is AdmissionMiddleware:
                if stage.max_in_flight is not None:
                    return False
            elif type(stage) not in (
                MetricsMiddleware,
                AuditMiddleware,
                CoalesceMiddleware,
                WarmStartMiddleware,
                CacheMiddleware,
            ):
                return False
        return type(self._stages[-1]) is SolverMiddleware

    def _solve_batch_parallel(
        self, requests: List[Request], backend
    ) -> List[Response]:
        """Fan cache-missing solves out to ``backend``, then merge back.

        Three lanes, chosen per scheduler capability: the requested pool
        (process or thread), a thread fallback for unpicklable work under
        a process backend, and in-line serial for schedulers that are not
        ``parallel_safe``.  Duplicate requests inside the batch solve
        once (the coalesce identity rule); the extra occurrences count as
        cache hits, mirroring the serial path.
        """
        cache = self.find(CacheMiddleware)
        metrics = self._metrics
        plan = self._plan_batch(requests, cache)
        pending = self._pending_work(plan, cache)
        solved = self._execute_pending(pending, backend)
        return self._assemble_batch(plan, solved, cache, metrics)

    def _solve_batch_lp(self, requests: List[Request]) -> List[Response]:
        """The composed-LP batch executor (``solve_batch(lp_batch=True)``).

        Identical planning/merge machinery to the worker-lane path; only
        the execution differs — protocol-capable schedulers compile a
        :class:`StandardForm` per request and the whole set solves in
        one block-diagonal pass through
        :func:`repro.solver.solve_forms`, which certifies every block's
        answer against the solo solve (or actually runs it solo).
        """
        cache = self.find(CacheMiddleware)
        metrics = self._metrics
        plan = self._plan_batch(requests, cache)
        pending = self._pending_work(plan, cache)
        solved = self._execute_pending_lp(pending)
        return self._assemble_batch(plan, solved, cache, metrics)

    def _plan_batch(self, requests: List[Request], cache) -> List[tuple]:
        """Resolve names/fingerprints up front (raises on unknown
        schedulers or uncacheable options exactly like the serial path)."""
        plan = []
        for request in requests:
            name = self.registry.resolve(request.scheduler)
            opts = dict(request.options)
            fingerprint = request.fingerprint or instance_fingerprint(request.instance)
            use_cache = request.use_cache and cache is not None
            # always the derived content identity: a custom Request.key is a
            # dispatch()-level feature and would corrupt the merge entries
            key = (fingerprint, name, options_key(opts)) if use_cache else None
            plan.append((request.instance, name, opts, fingerprint, key, use_cache))
        return plan

    def _pending_work(
        self, plan: List[tuple], cache
    ) -> "OrderedDict[object, Tuple[Any, str, Dict[str, object]]]":
        """The work that actually needs solving, deduplicated by key."""
        coalesce = self.find(CoalesceMiddleware)
        pending: "OrderedDict[object, Tuple[Any, str, Dict[str, object]]]"
        pending = OrderedDict()
        duplicates = 0
        if cache is not None:
            with cache.lock:
                for index, (instance, name, opts, _, key, use_cache) in enumerate(plan):
                    if not use_cache:
                        pending[("#", index)] = (instance, name, opts)
                    elif not cache.contains_unlocked(key):
                        if key in pending:
                            duplicates += 1
                        else:
                            pending[key] = (instance, name, opts)
        else:
            for index, (instance, name, opts, _, _, _) in enumerate(plan):
                pending[("#", index)] = (instance, name, opts)
        if coalesce is not None:
            coalesce.note_coalesced(duplicates)
        return pending

    def _execute_pending_lp(
        self,
        pending: "OrderedDict[object, Tuple[Any, str, Dict[str, object]]]",
    ) -> Dict[object, Tuple[np.ndarray, Optional[str], float]]:
        """Solve the pending work through one composed LP where possible.

        A scheduler participates when it exposes the batch protocol and
        ``compile_form`` returns a form for the instance (it returns
        ``None`` to decline — trivial single-tenant cases, or regimes
        like cutting planes where a monolithic form is the wrong tool).
        Everything else runs the ordinary solo payload.
        """
        from repro.solver import solve_forms

        solved: Dict[object, Tuple[np.ndarray, Optional[str], float]] = {}
        batchable = []  # (lookup, allocator, instance, form)
        for lookup, (instance, name, opts) in pending.items():
            factory = self.registry.info(name).factory
            allocator = factory(**opts)
            form = None
            if hasattr(allocator, "compile_form") and hasattr(
                allocator, "allocation_from_values"
            ):
                form = allocator.compile_form(instance)
            if form is None:
                solved[lookup] = _solve_payload((instance, factory, opts))
            else:
                batchable.append((lookup, allocator, instance, form))
        if batchable:
            start = time.perf_counter()
            solutions = solve_forms([form for *_, form in batchable])
            elapsed = (time.perf_counter() - start) / len(batchable)
            for (lookup, allocator, instance, _), solution in zip(
                batchable, solutions
            ):
                allocation = allocator.allocation_from_values(
                    instance, solution.values
                )
                solved[lookup] = (
                    allocation.matrix,
                    allocation.allocator_name,
                    elapsed,
                )
        return solved

    def _assemble_batch(
        self,
        plan: List[tuple],
        solved: Dict[object, Tuple[np.ndarray, Optional[str], float]],
        cache,
        metrics,
    ) -> List[Response]:
        # merge worker results into the parent cache and snapshot one
        # (matrix, allocator_name, elapsed, from_cache, hits, misses)
        # tuple per request, in order; duplicates of one solved key read
        # the merged entry and count as hits, mirroring the serial
        # miss-then-hit behaviour.  Only bookkeeping happens under the
        # lock — Allocation construction and any re-solves stay outside.
        assembled: List[Optional[tuple]] = []
        evicted: List[int] = []
        first_seen: set = set()
        lock = cache.lock if cache is not None else threading.RLock()
        with lock:
            if cache is not None:
                for key, (matrix, allocator_name, _) in solved.items():
                    if isinstance(key, tuple) and len(key) == 2 and key[0] == "#":
                        continue  # uncached request: nothing to merge
                    # key = (fingerprint, name, options); fall back to the
                    # canonical name exactly like the serial insert path
                    cache.insert_unlocked(
                        key,
                        (matrix.copy(), allocator_name or key[1], key[0], key[1]),
                    )
            for index, (instance, name, opts, fingerprint, key, use_cache) in enumerate(
                plan
            ):
                lookup = key if use_cache else ("#", index)
                if lookup in solved and lookup not in first_seen:
                    first_seen.add(lookup)
                    matrix, allocator_name, elapsed = solved[lookup]
                    hits, misses = (
                        cache.note_miss_unlocked() if cache is not None else (0, 0)
                    )
                    assembled.append(
                        (matrix, allocator_name, elapsed, False, hits, misses)
                    )
                elif use_cache:
                    entry = cache.get_unlocked(key)
                    if entry is None:
                        # a tiny LRU bound can evict a pre-existing entry
                        # while the worker results merge in; re-solve it
                        # outside the lock below
                        evicted.append(index)
                        assembled.append(None)
                    else:
                        matrix, allocator_name = entry[0], entry[1]
                        hits, misses = cache.note_hit_unlocked()
                        assembled.append(
                            (matrix.copy(), allocator_name, 0.0, True, hits, misses)
                        )
                else:  # pragma: no cover - every uncached index is unique
                    raise AssertionError("uncached request missing its result")

        for index in evicted:
            instance, name, opts, _, _, _ = plan[index]
            matrix, allocator_name, elapsed = _solve_payload(
                (instance, self.registry.info(name).factory, opts)
            )
            with lock:
                hits, misses = (
                    cache.note_miss_unlocked() if cache is not None else (0, 0)
                )
                assembled[index] = (
                    matrix, allocator_name, elapsed, False, hits, misses,
                )

        responses = []
        for (instance, name, opts, fingerprint, key, use_cache), (
            matrix, allocator_name, elapsed, from_cache, hits, misses,
        ) in zip(plan, assembled):
            response = Response(
                scheduler=name,
                allocation=Allocation(
                    matrix, instance, allocator_name=allocator_name
                ),
                fingerprint=fingerprint,
                disposition="cache-hit" if from_cache else "cold",
                solve_seconds=elapsed,
                cache_hits=hits,
                cache_misses=misses,
            )
            response = replace(response, result=response.allocation)
            if metrics is not None:
                metrics.record(response.disposition, elapsed)
            responses.append(response)
        return responses

    def _execute_pending(
        self,
        pending: "OrderedDict[object, Tuple[Any, str, Dict[str, object]]]",
        backend,
    ) -> Dict[object, Tuple[np.ndarray, Optional[str], float]]:
        """Run the deduplicated work through capability-matched lanes.

        Lane choice per scheduler: a process pool needs only a picklable
        payload (workers are isolated single-threaded processes, so
        ``parallel_safe`` is irrelevant there); a thread pool needs
        ``parallel_safe``; everything else runs serially in the parent.
        The fallback lanes execute *concurrently* with the requested
        pool, so a mixed batch still overlaps all its work.
        """
        pool_lane: List[Tuple[object, tuple]] = []
        thread_lane: List[Tuple[object, tuple]] = []
        serial_lane: List[Tuple[object, tuple]] = []
        wants_processes = isinstance(backend, ProcessBackend)
        warned: set = set()

        def warn_once(name: str, message: str) -> None:
            if name not in warned:
                warned.add(name)
                warnings.warn(message, RuntimeWarning, stacklevel=5)

        # memoize the (expensive) instance pickle probe by object identity
        # — batches typically repeat instances across schedulers — and
        # probe the (factory, options) part separately; it is tiny.
        instance_probe: Dict[int, bool] = {}

        def payload_picklable(payload: tuple) -> bool:
            instance, factory, opts = payload
            ok = instance_probe.get(id(instance))
            if ok is None:
                ok = probe_picklable(instance)
                instance_probe[id(instance)] = ok
            return ok and probe_picklable((factory, opts))

        for lookup, (instance, name, opts) in pending.items():
            info = self.registry.info(name)
            payload = (instance, info.factory, opts)
            if wants_processes and info.picklable and payload_picklable(payload):
                pool_lane.append((lookup, payload))
            elif not info.parallel_safe:
                warn_once(
                    name,
                    f"scheduler {name!r} is registered parallel_safe=False "
                    "and cannot reach process isolation; solving it "
                    "serially in the parent process",
                )
                serial_lane.append((lookup, payload))
            elif wants_processes:
                warn_once(
                    name,
                    f"scheduler {name!r} cannot cross a process boundary "
                    "(picklable=False or unpicklable payload); falling "
                    "back to the thread backend for this work",
                )
                thread_lane.append((lookup, payload))
            else:
                pool_lane.append((lookup, payload))

        solved: Dict[object, Tuple[np.ndarray, Optional[str], float]] = {}
        fallback_results: Dict[object, Tuple[np.ndarray, Optional[str], float]] = {}
        fallback_errors: List[BaseException] = []

        def run_fallback_lanes() -> None:
            try:
                if thread_lane:
                    fallback = ThreadBackend(backend.max_workers)
                    outputs = fallback.map(
                        _solve_payload, [p for _, p in thread_lane]
                    )
                    fallback_results.update(
                        zip((k for k, _ in thread_lane), outputs)
                    )
                # the serial lane runs alone (after the thread-pool map has
                # drained), honouring parallel_safe=False within this thread
                for lookup, payload in serial_lane:
                    fallback_results[lookup] = _solve_payload(payload)
            except BaseException as exc:  # re-raised in the parent below
                fallback_errors.append(exc)

        # overlap the fallback lanes with the pool only when the pool's
        # workers are separate *processes*: under a thread pool, an
        # overlapped serial lane would solve concurrently with in-process
        # pool threads — exactly what parallel_safe=False forbids.
        fallback_worker: Optional[threading.Thread] = None
        if thread_lane or serial_lane:
            if pool_lane and wants_processes:
                fallback_worker = threading.Thread(target=run_fallback_lanes)
                fallback_worker.start()
            else:
                run_fallback_lanes()
        if pool_lane:
            outputs = backend.map(_solve_payload, [p for _, p in pool_lane])
            solved.update(zip((k for k, _ in pool_lane), outputs))
        if fallback_worker is not None:
            fallback_worker.join()
        if fallback_errors:
            raise fallback_errors[0]
        solved.update(fallback_results)
        return solved

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
        lp_backend: str = "auto",
        pe_within=_USE_REGISTRY_DEFAULT,
        efficiency_constraint=_USE_REGISTRY_DEFAULT,
        pe_tolerance: float = 1e-5,
        options: Optional[Mapping[str, object]] = None,
    ) -> PropertyReport:
        """Table-1 property audit with registry-sourced policy defaults.

        ``pe_within`` / ``efficiency_constraint`` default to the
        scheduler's registered audit configuration; explicit arguments
        (including ``None``) win.  ``lp_backend`` names the audit's LP
        solver; solves memoize through the cache stage.
        """
        info = self.registry.info(scheduler)
        if pe_within is _USE_REGISTRY_DEFAULT:
            pe_within = info.pe_within
        if efficiency_constraint is _USE_REGISTRY_DEFAULT:
            efficiency_constraint = info.efficiency_constraint
        return audit_allocator(
            self.allocator(info.name, **(options or {})),
            instance,
            efficiency_constraint=efficiency_constraint,
            sp_trials=sp_trials,
            backend=lp_backend,
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
        lp_backend: str = "auto",
    ) -> List[FrontierPoint]:
        """The efficiency–fairness frontier sweep (memoized per alpha grid).

        Each alpha is an independent epsilon-constraint LP; ``backend``
        fans them out.  The memo lives in the cache stage's auxiliary
        store (same LRU bound and counters), keyed on the
        instance/alphas/LP solver, never on how it was executed.
        """
        alpha_key = tuple(float(alpha) for alpha in alphas)
        key = ("frontier", instance_fingerprint(instance), alpha_key, lp_backend)
        cache = self.find(CacheMiddleware)
        if cache is not None:
            cached = cache.aux_lookup(key)
            if cached is not None:
                return list(cached)
        solve_alpha = partial(frontier_point, instance, backend=lp_backend)
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
        """Aggregated :class:`CacheStats` across the cache + warm stages."""
        cache = self.find(CacheMiddleware)
        warm = self.find(WarmStartMiddleware)
        cache_stats = cache.stats() if cache is not None else {}
        warm_stats = warm.stats() if warm is not None else {}
        return CacheStats(
            hits=cache_stats.get("hits", 0),
            misses=cache_stats.get("misses", 0),
            entries=cache_stats.get("entries", 0),
            max_entries=cache_stats.get("max_entries", 0),
            warm_hits=cache_stats.get("warm_hits", 0),
            structural_hits=warm_stats.get("structural_hits", 0),
            evictions=cache_stats.get("evictions", 0) + warm_stats.get("evictions", 0),
            warm_entries=warm_stats.get("warm_entries", 0),
        )

    def metrics_snapshot(self) -> List[Dict[str, object]]:
        """The metrics stage's histogram rows ([] without one)."""
        return [] if self._metrics is None else self._metrics.snapshot()

    def clear_cache(self) -> None:
        """Reset the cache and warm stages (entries and counters)."""
        for cls in (CacheMiddleware, WarmStartMiddleware):
            stage = self.find(cls)
            if stage is not None:
                stage.reset()

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
    "_solve_payload",
]
