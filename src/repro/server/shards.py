"""The shard pool: N gateway workers behind a consistent-hash ring.

Each shard owns a full middleware-pipeline
:class:`~repro.gateway.Gateway` (its own LRU cache and admission
stage) plus a dedicated :class:`ThreadPoolExecutor`; the asyncio front
end routes every request by **consistent hash on the instance
fingerprint**, so repeated solves of the same instance always land on
the same shard and that shard's cache stays hot.  A request that cache
holds (an uncounted peek, :meth:`Gateway.holds`) runs the pipeline on the
event loop, any other on the shard's executor threads, so the loop never
waits on an LP solve, bar one race, counted as ``loop_solved``: an entry
evicted between peek and lookup is solved on the loop (``docs/server.md``).

Consistent hashing (vs ``hash % N``) matters for the roadmap's scale
story: when the shard count changes, only ~1/N of the keyspace moves, so
a resized pool keeps most of its cache heat.  The ring places
``hash_replicas`` virtual nodes per shard for smoothing.

Sizing: with a bounded admission stage the executor gets
``max_in_flight + 2`` threads — up to ``max_in_flight`` of them may
block inside LP solves while the spare threads keep cycling shed
requests (an :class:`~repro.gateway.Overloaded` return is microseconds),
so under overload the pool keeps answering 429s instead of growing an
unbounded executor queue (the "queue collapse" the serving layer is
designed to avoid).  Unbounded pools default to one thread per shard,
which serialises each shard's LP work and maximises cache locality.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro.gateway import (
    Gateway,
    Request,
    Response,
    bare_pipeline,
    default_pipeline,
    instance_fingerprint,
)
from repro.gateway.middleware import AdmissionMiddleware
from repro.registry import SchedulerRegistry

#: Virtual nodes per shard on the hash ring.
HASH_REPLICAS = 64

#: ``--pipeline`` spellings accepted by the pool (and the CLI).
PIPELINES = ("default", "bare")


def _ring_point(token: str) -> int:
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big")


class ShardPool:
    """N sharded gateways routed by consistent hash on the fingerprint."""

    def __init__(
        self,
        shards: int = 2,
        *,
        pipeline: str = "default",
        max_in_flight: Optional[int] = None,
        registry: Optional[SchedulerRegistry] = None,
        executor_threads: Optional[int] = None,
        hash_replicas: int = HASH_REPLICAS,
        pipeline_factory: Optional[Callable[[], List]] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if pipeline not in PIPELINES and pipeline_factory is None:
            raise ValueError(f"pipeline must be one of {PIPELINES}")
        self.num_shards = shards
        self.pipeline_name = pipeline
        self.max_in_flight = max_in_flight

        def build_pipeline():
            if pipeline_factory is not None:
                return pipeline_factory()
            if pipeline == "bare":
                return bare_pipeline(registry)
            return default_pipeline(registry, max_in_flight=max_in_flight)

        if executor_threads is None:
            # headroom so sheds never queue behind blocked solver threads
            executor_threads = (
                max_in_flight + 2 if max_in_flight is not None else 1
            )
        self.executor_threads = max(1, executor_threads)

        self.gateways: List[Gateway] = [
            Gateway(build_pipeline()) for _ in range(shards)
        ]
        self._executors: List[ThreadPoolExecutor] = [
            ThreadPoolExecutor(
                max_workers=self.executor_threads,
                thread_name_prefix=f"repro-shard-{index}",
            )
            for index in range(shards)
        ]
        self._dispatched = [0] * shards
        #: Where ``dispatch`` ran the pipeline (``paths()``).
        self._paths = dict.fromkeys(("loop", "loop_solved", "shard"), 0)
        self._lock = threading.Lock()
        self._drained = False

        points: List[tuple] = []
        for index in range(shards):
            for replica in range(hash_replicas):
                points.append((_ring_point(f"shard-{index}:{replica}"), index))
        points.sort()
        self._ring_keys = [point for point, _ in points]
        self._ring_shards = [index for _, index in points]

    # -- routing -----------------------------------------------------------
    def shard_for(self, fingerprint: str) -> int:
        """The ring successor of the fingerprint's hash point."""
        point = _ring_point(fingerprint)
        index = bisect.bisect_right(self._ring_keys, point)
        if index == len(self._ring_keys):
            index = 0  # wrap around the ring
        return self._ring_shards[index]

    def route(self, request: Request) -> int:
        fingerprint = request.fingerprint or instance_fingerprint(
            request.instance
        )
        return self.shard_for(fingerprint)

    # -- dispatch ----------------------------------------------------------
    def dispatch_sync(self, request: Request) -> Response:
        """Blocking dispatch on the routed shard (tests, differentials)."""
        shard = self.route(request)
        with self._lock:
            self._dispatched[shard] += 1
        return self.gateways[shard].solve(request)

    async def dispatch(
        self, request: Request, shard: Optional[int] = None
    ) -> Response:
        """Route (unless the caller already did) and solve: on the calling
        loop when the shard's cache holds the answer, else on its thread."""
        if self._drained:
            raise RuntimeError("shard pool is drained")
        shard = self.route(request) if shard is None else shard
        gateway = self.gateways[shard]
        on_loop = gateway.holds(request)
        with self._lock:
            self._dispatched[shard] += 1
            self._paths["loop" if on_loop else "shard"] += 1
        if on_loop:
            response = gateway.solve(request)
            if response.disposition == "cold":  # evicted since the peek
                with self._lock:
                    self._paths["loop_solved"] += 1
            return response
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executors[shard], gateway.solve, request)

    async def run_on_shard(self, fingerprint: str, fn: Callable, *args):
        """Run an arbitrary callable on the shard owning ``fingerprint``.

        ``fn`` receives the shard's gateway as its first argument.  Used
        for audit/compare endpoints: they solve repeatedly through that
        gateway, so routing them like solves keeps their memoized work
        on the hot shard.
        """
        if self._drained:
            raise RuntimeError("shard pool is drained")
        shard = self.shard_for(fingerprint)
        loop = asyncio.get_running_loop()
        return shard, await loop.run_in_executor(
            self._executors[shard], fn, self.gateways[shard], *args
        )

    # -- telemetry / lifecycle --------------------------------------------
    def stats(self) -> List[Dict[str, object]]:
        """One row per shard: routing counts, cache and admission stats."""
        rows = []
        with self._lock:
            dispatched = list(self._dispatched)
        for index, gateway in enumerate(self.gateways):
            cache = gateway.cache_info()
            admission = gateway.find(AdmissionMiddleware)
            rows.append(
                {
                    "shard": index,
                    "dispatched": dispatched[index],
                    "cache_hits": cache.hits,
                    "cache_misses": cache.misses,
                    "cache_entries": cache.entries,
                    "admission": (
                        admission.stats() if admission is not None else {}
                    ),
                }
            )
        return rows

    def paths(self) -> Dict[str, int]:
        """``dispatch`` counts by where the pipeline ran (``server.dispatch``)."""
        with self._lock:
            return dict(self._paths)

    def drain(self) -> None:
        """Finish in-flight shard work, then release the executors."""
        self._drained = True
        for executor in self._executors:
            executor.shutdown(wait=True)

    def __repr__(self) -> str:
        return (
            f"ShardPool(shards={self.num_shards}, "
            f"pipeline={self.pipeline_name!r}, "
            f"threads/shard={self.executor_threads})"
        )


__all__ = ["HASH_REPLICAS", "PIPELINES", "ShardPool"]
