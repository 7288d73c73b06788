"""Built-in middleware stages: the composable layers of the gateway.

A middleware is one object with one method::

    class Middleware:
        def handle(self, request: Request, next) -> Response: ...

``next`` is the downstream remainder of the pipeline; a stage may answer
without calling it (cache hit, admission shed), derive a modified
request on the way down, or derive a modified response on the way up
(counter snapshots).  Stages hold their own state under their own
locks, so any subset composes in any order — the pipeline-permutation
property test asserts that every ordering of the optimisation stages
around the terminal solver yields bit-identical allocations.

Built-ins, outermost-first in :func:`repro.gateway.default_pipeline`:

=====================  =====================================================
:class:`AdmissionMiddleware`  max in-flight bound + deadline shedding, typed
                              :class:`~repro.gateway.envelope.Overloaded`
:class:`MetricsMiddleware`    per-disposition and per-stage latency
                              histograms (feeds ``GET /metrics``)
:class:`CoalesceMiddleware`   dedupes identical in-flight requests — the
                              follower waits for the leader and re-enters
                              the chain (hitting the cache below)
:class:`CacheMiddleware`      the content-hash LRU + :class:`CacheStats`
:class:`SolverMiddleware`     terminal: constructs the scheduler from the
                              registry and runs the allocation (one at a
                              time for ``parallel_safe=False`` schedulers)
=====================  =====================================================

Ordering contract (see ``docs/middleware.md``): Admission should be
outermost (shed before any work), Coalesce must sit above Cache (so a
coalesced follower's retry is a cache hit), and the terminal solver is
always last.  Correctness never depends on the order — only counters
and latency do.  :meth:`Gateway.solve_batch` adds no stage and skips
none: a batch is these stages, dispatched per item.

A request is answered cold or from the exact cache, nothing else.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.exceptions import ValidationError
from repro.gateway.envelope import (
    Overloaded,
    Request,
    Response,
    instance_fingerprint,
    options_key,
)
from repro.registry import SchedulerRegistry

#: Signature of the downstream remainder of a pipeline.
Handler = Callable[[Request], Response]


def _default_registry() -> SchedulerRegistry:
    from repro.registry import REGISTRY

    return REGISTRY


def derive_key(request: Request, registry: SchedulerRegistry) -> object:
    """The canonical cache identity of an allocation request.

    ``(instance fingerprint, canonical scheduler, frozen options)`` —
    the one rule shared by the cache stage, the coalesce stage and the
    gateway's normalisation, so an entry stored by any of them is found
    by all of them.  Raises ``TypeError`` for option values that cannot
    be content-hashed.
    """
    return (
        request.fingerprint or instance_fingerprint(request.instance),
        registry.resolve(request.scheduler),
        options_key(request.options),
    )


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of the pipeline's cache counters.

    ``hits``/``misses`` account every solve-shaped call against the exact
    (content-hash) cache stage; ``evictions`` counts LRU evictions across
    the allocation and auxiliary (frontier) stores combined.
    """

    hits: int
    misses: int
    entries: int
    max_entries: int
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Middleware:
    """Base class / protocol for one pipeline stage."""

    #: Stable stage name used in timings, ``repro list-middleware``,
    #: and ``Gateway.use(before=...)`` lookups.
    name: str = "middleware"

    def handle(self, request: Request, next: Handler) -> Response:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """One printable capability row for ``repro list-middleware``."""
        return {
            "stage": self.name,
            "class": type(self).__name__,
            "caches": "no",
            "sheds": "no",
            "stateful": "no",
            "terminal": "no",
        }

    def reset(self) -> None:
        """Drop accumulated state/counters (cache clear, test isolation)."""


class SolverMiddleware(Middleware):
    """Terminal stage: construct the scheduler and run the allocation.

    Dispatches through the scheduler registry, so aliases resolve and
    new allocators appear the moment they self-register.

    This is also where the registry's ``parallel_safe=False`` flag is
    enforced: such a scheduler's solves hold its registry-owned lock,
    so they never overlap however many threads, batches or gateways
    reach it.  The default (``True``) costs one attribute check.
    """

    name = "solver"

    def __init__(self, registry: Optional[SchedulerRegistry] = None):
        self.registry = registry if registry is not None else _default_registry()

    def handle(self, request: Request, next: Handler) -> Response:
        info = self.registry.info(request.scheduler)
        fingerprint = request.fingerprint or instance_fingerprint(request.instance)
        if info.parallel_safe:
            allocation, elapsed = self._run(info, request)
        else:
            # one lock per scheduler, owned by the registry, so every
            # gateway (and server shard) over it takes turns
            with self.registry.solve_lock(info.name):
                allocation, elapsed = self._run(info, request)
        return Response(
            scheduler=info.name,
            allocation=allocation,
            fingerprint=fingerprint,
            solve_seconds=elapsed,
        )

    @staticmethod
    def _run(info, request: Request):
        """``(allocation, scheduler seconds)``."""
        allocator = info.factory(**dict(request.options))
        start = time.perf_counter()
        allocation = allocator.allocate(request.instance)
        return allocation, time.perf_counter() - start

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        row.update(terminal="yes", schedulers=len(self.registry))
        return row


class CacheMiddleware(Middleware):
    """Content-addressed LRU over solved requests (the exact tier).

    Keys on ``Request.key`` when set, else on ``(instance fingerprint,
    canonical scheduler, frozen options)``.  The solver's matrix is
    copied once on insert and the copy is marked read-only; every hit
    hands that same array to an :meth:`Allocation.checked` bound to the
    caller's own instance, with no copy and no re-check (the key fixes
    the instance content, and the stored bytes can no longer change); a
    caller-set ``Request.key`` is trusted as that identity, and a hit
    whose matrix does not fit the instance's shape raises
    :class:`ValidationError` naming the key.  A hit carries the solver's
    :class:`~repro.core.allocation.Certificate` too, which
    :func:`~repro.core.properties.certified_total` trusts only where it
    fits the caller's instance.  A write to a hit's matrix raises
    ``ValueError``, so callers can never poison the cache.  Entries hold
    the matrix and certificate, never an instance.  A hit names its entry
    only by the opaque per-insert token beside the matrix
    (``Response.cache_entry``).
    One LRU bound (``max_entries``) covers the primary store and the
    auxiliary store (:meth:`Gateway.frontier`'s memo) combined.

    Threading: one re-entrant lock guards the stores and counters;
    lookups, inserts, LRU reordering, and trims happen under it while
    the downstream solve runs *outside* it, so concurrent solves
    overlap.  ``use_cache=False`` requests still count as misses,
    they just never touch the stores.
    """

    name = "cache"

    def __init__(
        self,
        registry: Optional[SchedulerRegistry] = None,
        max_entries: int = 4096,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.registry = registry if registry is not None else _default_registry()
        self.max_entries = max_entries
        self._store: "OrderedDict[object, Any]" = OrderedDict()
        self._aux: "OrderedDict[object, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        #: Guards both stores and all counters.
        self._lock = threading.RLock()

    def handle(self, request: Request, next: Handler) -> Response:
        key = None
        if request.use_cache:
            key = request.key
            if key is None:
                key = derive_key(request, self.registry)
            with self._lock:
                entry = self._store.get(key)
                if entry is not None:
                    self._store.move_to_end(key)
                    self._hits += 1
                    hits, misses = self._hits, self._misses
            if entry is not None:
                matrix, allocator_name, certificate, fingerprint, canonical, token = entry
                instance = request.instance
                if matrix.shape != (instance.num_users, instance.num_gpu_types):
                    raise ValidationError(
                        f"cache key {key!r} holds a {matrix.shape} allocation; the "
                        f"instance is {(instance.num_users, instance.num_gpu_types)}"
                    )
                return Response(
                    scheduler=canonical,
                    allocation=Allocation.checked(
                        matrix, request.instance, allocator_name, certificate
                    ),
                    fingerprint=fingerprint,
                    disposition="cache-hit",
                    cache_hits=hits,
                    cache_misses=misses,
                    cache_entry=token,
                )

        # count the miss before the solver runs (concurrent callers
        # each account exactly one hit or miss)
        with self._lock:
            self._misses += 1
        response = next(request)
        if not response.ok:
            return response
        with self._lock:
            if key is not None:
                allocation = response.allocation
                matrix = allocation.matrix.copy()
                matrix.setflags(write=False)  # every hit shares these bytes
                self._store[key] = (
                    matrix,
                    allocation.allocator_name or response.scheduler,
                    allocation.certificate,
                    response.fingerprint,
                    response.scheduler,
                    object(),  # this entry's identity (Response.cache_entry)
                )
                self._trim(self._store)
            hits, misses = self._hits, self._misses
        return replace(response, cache_hits=hits, cache_misses=misses)

    # -- auxiliary store (Gateway.frontier memo) ---------------------------
    def aux_lookup(self, key: object) -> Optional[Any]:
        """Counted lookup in the auxiliary store (shares the LRU bound)."""
        with self._lock:
            value = self._aux.get(key)
            if value is not None:
                self._aux.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
            return None

    def aux_store(self, key: object, value: Any) -> None:
        with self._lock:
            self._aux[key] = value
            self._trim(self._aux)

    # -- maintenance -------------------------------------------------------
    def _trim(self, target: OrderedDict) -> None:
        # evict from the store just inserted into until the combined size
        # fits the bound again (inserts grow by one, so this suffices)
        while (
            len(self._store) + len(self._aux) > self.max_entries and target
        ):
            target.popitem(last=False)
            self._evictions += 1

    def __contains__(self, key: object) -> bool:
        """Uncounted peek at the primary store (no hit/miss, no LRU touch)."""
        with self._lock:
            return key in self._store

    def __len__(self) -> int:
        """Current entry count (primary + auxiliary stores)."""
        with self._lock:
            return len(self._store) + len(self._aux)

    def invalidate(self) -> int:
        """Drop every entry, keep the counters; returns entries dropped."""
        with self._lock:
            dropped = len(self._store) + len(self._aux)
            self._store.clear()
            self._aux.clear()
            return dropped

    def reset(self) -> None:
        with self._lock:
            self._store.clear()
            self._aux.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._store) + len(self._aux),
                "max_entries": self.max_entries,
            }

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        snapshot = self.stats()
        row.update(
            caches="yes",
            stateful="yes",
            detail=f"LRU {snapshot['entries']}/{snapshot['max_entries']}",
        )
        return row


class CoalesceMiddleware(Middleware):
    """Dedupe identical in-flight requests across threads and batches.

    The first thread to ask a given cache key becomes the *leader*: it
    marks the key in flight and solves normally.  The first concurrent
    follower with the same key hangs a ``threading.Event`` on that mark,
    and every follower blocks on it until the leader finishes; the leader
    sets the event only if one is there, so a lone request builds none.
    Followers then re-enter the downstream chain — which is a cache hit
    when a cache stage sits below (the default pipeline), and a correct
    independent solve otherwise.  ``wait_timeout`` bounds the wait so a
    wedged leader can never deadlock followers.  Duplicate requests
    inside one threaded :meth:`Gateway.solve_batch` are deduped here like
    any other concurrent callers.
    """

    name = "coalesce"

    def __init__(
        self,
        registry: Optional[SchedulerRegistry] = None,
        wait_timeout: float = 30.0,
    ):
        self.registry = registry if registry is not None else _default_registry()
        self.wait_timeout = wait_timeout
        #: key -> the event its followers wait on (``None`` until one arrives)
        self._inflight: Dict[object, Optional[threading.Event]] = {}
        self._coalesced = 0
        self._lock = threading.Lock()

    def handle(self, request: Request, next: Handler) -> Response:
        if not request.use_cache:
            return next(request)
        key = request.key
        if key is None:
            try:
                key = derive_key(request, self.registry)
            except TypeError:
                return next(request)
        with self._lock:
            leader = key not in self._inflight
            if leader:
                self._inflight[key] = None  # a follower hangs its event here
            else:
                event = self._inflight[key]
                if event is None:
                    event = self._inflight[key] = threading.Event()
        if leader:
            try:
                return next(request)
            finally:
                with self._lock:
                    event = self._inflight.pop(key)
                if event is not None:
                    event.set()
        # count a successful dedup only when the leader actually finished;
        # a timed-out wait falls through to an ordinary duplicate solve
        if event.wait(self.wait_timeout):
            with self._lock:
                self._coalesced += 1
        return next(request)

    def reset(self) -> None:
        with self._lock:
            self._coalesced = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"coalesced": self._coalesced, "in_flight": len(self._inflight)}

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        row.update(stateful="yes", detail=f"coalesced {self._coalesced}")
        return row


class MetricsMiddleware(Middleware):
    """Per-disposition latency histograms for the whole downstream chain.

    Records one sample per request under the response's disposition
    (``cold`` / ``cache-hit`` / ``shed-*``), and —
    fed by the gateway after each dispatch — per-stage inclusive
    latencies under ``stage:<name>``.  :meth:`snapshot` renders one
    row per label (mean/p50/p95 seconds), which ``GET /metrics`` serves.
    """

    name = "metrics"

    def __init__(self, max_samples: int = 4096):
        self.max_samples = max_samples
        self._samples: Dict[str, deque] = {}
        self._counts: Dict[str, int] = {}
        #: stage name -> its ``stage:<name>`` label, built once per stage
        self._stage_labels: Dict[str, str] = {}
        self._lock = threading.Lock()

    def handle(self, request: Request, next: Handler) -> Response:
        start = time.perf_counter()
        response = next(request)
        self.record(response.disposition, time.perf_counter() - start)
        return response

    def record(self, label: str, seconds: float) -> None:
        with self._lock:
            self._append_locked(label, seconds)

    def _append_locked(self, label: str, seconds: float) -> None:
        bucket = self._samples.get(label)
        if bucket is None:
            bucket = self._samples[label] = deque(maxlen=self.max_samples)
        bucket.append(seconds)
        self._counts[label] = self._counts.get(label, 0) + 1

    def observe_stages(self, timings: Tuple[Tuple[str, float], ...]) -> None:
        """Gateway callback: fold one dispatch's per-stage timings in,
        under one hold of the lock."""
        labels = self._stage_labels
        with self._lock:
            for stage, seconds in timings:
                label = labels.get(stage)
                if label is None:
                    label = labels[stage] = f"stage:{stage}"
                self._append_locked(label, seconds)

    def snapshot(self) -> List[Dict[str, object]]:
        """One row per label (mean/p50/p95/samples)."""
        with self._lock:
            items = [
                (label, list(bucket), self._counts.get(label, 0))
                for label, bucket in self._samples.items()
            ]
        return [
            {"name": label, **_latency_stats(samples), "total_observations": count}
            for label, samples, count in sorted(items)
            if samples
        ]

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()
            self._counts.clear()

    def describe(self) -> Dict[str, object]:
        with self._lock:
            labels = len(self._samples)
        row = super().describe()
        row.update(stateful="yes", detail=f"{labels} histogram(s)")
        return row


def _latency_stats(seconds: List[float]) -> Dict[str, float]:
    """mean/p50/p95 and the sample count of one non-empty histogram."""
    samples = np.asarray(seconds, dtype=float)
    return {
        "mean": float(samples.mean()),
        "p50": float(np.percentile(samples, 50)),
        "p95": float(np.percentile(samples, 95)),
        "samples": int(samples.size),
    }


class AdmissionMiddleware(Middleware):
    """Load shedding: an in-flight bound plus deadline-aware refusal.

    A request whose ``deadline`` (monotonic timestamp; see
    :func:`repro.gateway.envelope.deadline_in`) has already passed is
    shed immediately with a typed
    :class:`~repro.gateway.envelope.Overloaded` response — solving it
    would waste capacity on an answer nobody is waiting for.  When
    ``max_in_flight`` is set, requests beyond that many concurrent
    solves are shed too, except requests with ``priority > 0``, which
    are always admitted.  With the defaults (no bound, no deadline) this
    stage is a transparent counter and the default pipeline never sheds.

    Every :class:`~repro.gateway.envelope.Overloaded` response carries a
    machine-readable ``retry_after_s`` backoff hint derived from the
    queue depth and an EWMA of recent downstream completion latency
    (roughly: how long until enough in-flight work drains for a retry to
    be admitted).  The serving layer maps it onto the HTTP
    ``Retry-After`` header; library callers should sleep at least that
    long before retrying.
    """

    name = "admission"

    #: EWMA decay for the downstream-latency estimate behind
    #: ``retry_after_s`` (0.2 ⇒ ~5-completion memory).
    LATENCY_EWMA_ALPHA = 0.2

    def __init__(
        self,
        max_in_flight: Optional[int] = None,
        retry_after_floor: float = 0.05,
    ):
        if max_in_flight is not None and max_in_flight < 0:
            raise ValueError("max_in_flight must be >= 0")
        if retry_after_floor < 0:
            raise ValueError("retry_after_floor must be >= 0")
        self.max_in_flight = max_in_flight
        self.retry_after_floor = retry_after_floor
        self._in_flight = 0
        self._admitted = 0
        self._shed_deadline = 0
        self._shed_capacity = 0
        self._latency_ewma = 0.0
        self._lock = threading.Lock()

    def _retry_after_locked(self) -> float:
        """Queue-depth-derived backoff hint; call under ``self._lock``.

        Expected drain time for one admission slot: the recent per-solve
        latency scaled by how oversubscribed the bound is, floored so
        callers never busy-spin on a cold (no-latency-sample) stage.
        """
        base = self._latency_ewma or self.retry_after_floor
        slots = max(1, self.max_in_flight or 1)
        depth = (self._in_flight + 1) / slots
        return max(self.retry_after_floor, base * depth)

    def retry_after_hint(self) -> float:
        """The backoff hint a request shed *right now* would receive."""
        with self._lock:
            return self._retry_after_locked()

    def handle(self, request: Request, next: Handler) -> Response:
        if request.deadline is not None and time.monotonic() >= request.deadline:
            with self._lock:
                self._shed_deadline += 1
                hint = self._retry_after_locked()
            return Overloaded(
                scheduler=request.scheduler,
                disposition="shed-deadline",
                reason="deadline passed before the request was admitted",
                retry_after_s=hint,
            )
        with self._lock:
            if (
                self.max_in_flight is not None
                and request.priority <= 0
                and self._in_flight >= self.max_in_flight
            ):
                self._shed_capacity += 1
                limit = self.max_in_flight
                hint = self._retry_after_locked()
                return Overloaded(
                    scheduler=request.scheduler,
                    disposition="shed-capacity",
                    reason=f"{self._in_flight} request(s) in flight >= bound {limit}",
                    retry_after_s=hint,
                )
            self._in_flight += 1
            self._admitted += 1
        start = time.perf_counter()
        try:
            return next(request)
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._in_flight -= 1
                if self._latency_ewma:
                    alpha = self.LATENCY_EWMA_ALPHA
                    self._latency_ewma += alpha * (elapsed - self._latency_ewma)
                else:
                    self._latency_ewma = elapsed

    def reset(self) -> None:
        with self._lock:
            self._admitted = 0
            self._shed_deadline = 0
            self._shed_capacity = 0
            self._latency_ewma = 0.0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "admitted": self._admitted,
                "shed_deadline": self._shed_deadline,
                "shed_capacity": self._shed_capacity,
                "in_flight": self._in_flight,
                "retry_after_hint_s": self._retry_after_locked(),
            }

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        bound = "unbounded" if self.max_in_flight is None else self.max_in_flight
        row.update(sheds="yes", stateful="yes", detail=f"max_in_flight {bound}")
        return row


__all__ = [
    "AdmissionMiddleware",
    "CacheMiddleware",
    "CacheStats",
    "CoalesceMiddleware",
    "Handler",
    "MetricsMiddleware",
    "Middleware",
    "SolverMiddleware",
    "derive_key",
]
