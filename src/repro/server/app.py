"""``ReproServer``: the asyncio front end that makes the gateway a service.

One :class:`asyncio.start_server` accept loop, the
:mod:`repro.server.http11` codec per connection, the
:mod:`repro.server.protocol` wire schemas per request, and a
:class:`~repro.server.shards.ShardPool` running each request's gateway
pipeline: on the event loop when the routed shard's cache holds the
answer, else on that shard's executor threads, so an LP solve happens
off-loop (bar the counted race in :mod:`repro.server.shards`).

Overload semantics: a request the routed shard's
:class:`~repro.gateway.middleware.AdmissionMiddleware` sheds comes back
as **HTTP 429** with a ``Retry-After`` header (integer ceiling of the
admission stage's queue-depth-derived ``retry_after_s`` hint; the exact
float rides in the JSON error body).  The server never grows an
unbounded internal queue: shard executors are sized so shed turnaround
stays at microseconds even while every admission slot is blocked in a
solve (see :mod:`repro.server.shards`).

Shutdown is a graceful drain: :meth:`ReproServer.stop` stops accepting,
lets in-flight requests finish (bounded by ``drain_timeout``), flushes
the continuous-audit worker (when ``audit=`` is enabled, every shard's
:class:`~repro.auditor.middleware.AuditMiddleware` feeds one shared
:class:`~repro.auditor.worker.AuditWorker`; ``GET /audit/report``
exposes its verdicts), snapshots the final metrics payload to
:attr:`ReproServer.final_metrics`, and releases the shard executors.

Usage::

    server = ReproServer(port=0, shards=4, max_in_flight=8)
    await server.start()          # server.port is the bound port
    ...
    await server.stop()

or from the command line: ``repro serve --port 8080 --shards 4``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
from collections import OrderedDict
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from repro import __version__
from repro.gateway import (
    Gateway,
    Request,
    RequestShed,
    Response,
    instance_fingerprint,
)
from repro.registry import SchedulerRegistry, registry_rows
from repro.server import http11
from repro.server.protocol import (
    WIRE_SCHEMA,
    ProtocolError,
    error_payload,
    json_bytes,
    overloaded_payload,
    parse_audit,
    parse_batch,
    parse_compare,
    parse_json,
    parse_solve,
    response_payload,
    retry_after_header,
    served_block,
    split_served,
)
from repro.server.shards import ShardPool


def _audit_on_shard(gateway, instance, scheduler, sp_trials, seed):
    """Executor-side audit body (runs on the owning shard's thread)."""
    report = gateway.audit(
        instance, scheduler, sp_trials=sp_trials, seed=seed
    )
    return report.as_row()


class ReproServer:
    """HTTP/1.1 scheduling service over a sharded gateway pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        shards: int = 2,
        pipeline: str = "default",
        max_in_flight: Optional[int] = None,
        registry: Optional[SchedulerRegistry] = None,
        max_body: int = http11.MAX_BODY_BYTES,
        drain_timeout: float = 10.0,
        audit: Optional[float] = None,
        audit_ledger: Optional[str] = None,
        audit_seed: int = 0,
    ):
        self.host = host
        self.port = port
        self.max_body = max_body
        self.drain_timeout = drain_timeout
        #: One worker shared by every shard's audit stage, so the ledger
        #: and the in-memory record buffer see the whole pool's traffic.
        self.audit_worker = None
        pipeline_factory = None
        if audit is not None:
            from repro.auditor.ledger import AuditLedger
            from repro.auditor.middleware import AuditMiddleware
            from repro.auditor.sampler import AuditSampler
            from repro.auditor.worker import AuditWorker
            from repro.gateway import bare_pipeline, default_pipeline

            ledger = (
                AuditLedger(audit_ledger)
                if audit_ledger
                else AuditLedger.default()
            )
            self.audit_worker = AuditWorker(
                ledger,
                registry=registry,
                scenario="serve",
                seed=int(audit_seed),
            )
            rate = float(audit)
            worker = self.audit_worker

            def pipeline_factory():
                stage = AuditMiddleware(
                    sampler=AuditSampler(rate, seed=int(audit_seed)),
                    worker=worker,
                )
                if pipeline == "bare":
                    return [stage] + bare_pipeline(registry)
                return default_pipeline(
                    registry, max_in_flight=max_in_flight, audit=stage
                )

        self.pool = ShardPool(
            shards,
            pipeline=pipeline,
            max_in_flight=max_in_flight,
            registry=registry,
            pipeline_factory=pipeline_factory,
        )
        self.registry = self.pool.gateways[0].registry
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._active_requests = 0
        self._writers: Set[asyncio.StreamWriter] = set()
        self._status_counts: Dict[str, int] = {}
        self._endpoint_counts: Dict[str, int] = {}
        #: ``/solve`` bodies already answered from cache, LRU by sha256 of the
        #: bytes: ``(Request, cache entry, prefix, suffix)``; event loop only,
        #: bytes reused only when that same entry answers (docs/server.md).
        self._hot: "OrderedDict[bytes, tuple]" = OrderedDict()
        self._hot_bound = sum(
            gateway.cache_info().max_entries for gateway in self.pool.gateways
        )
        self._hot_counts = dict.fromkeys(
            ("hits", "admitted", "re_encoded", "dropped", "unspliced"), 0
        )
        #: Metrics payload snapshotted by the graceful drain, so operators
        #: can flush final counters even after the listener is gone.
        self.final_metrics: Optional[Dict[str, object]] = None

        self._routes: Dict[
            Tuple[str, str],
            Callable[[http11.HttpRequest, asyncio.StreamWriter], Awaitable[bool]],
        ] = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/audit/report"): self._handle_audit_report,
            ("GET", "/schedulers"): self._handle_schedulers,
            ("POST", "/solve"): self._handle_solve,
            ("POST", "/solve_batch"): self._handle_solve_batch,
            ("POST", "/audit"): self._handle_audit,
            ("POST", "/compare"): self._handle_compare,
        }

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "ReproServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, flush metrics."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = asyncio.get_running_loop().time() + self.drain_timeout
        while (
            self._active_requests > 0
            and asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(0.02)
        if self.audit_worker is not None:
            # flush in-flight audits off-loop so the final metrics (and
            # the ledger) include every sample captured before the drain
            await asyncio.get_running_loop().run_in_executor(
                None, self.audit_worker.stop, self.drain_timeout
            )
        self.final_metrics = self._metrics_payload()
        for writer in list(self._writers):
            writer.close()
        self.pool.drain()

    # -- connection loop ---------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while not self._draining:
                try:
                    request = await http11.read_request(
                        reader, max_body=self.max_body
                    )
                except ProtocolError as exc:
                    self._count("(malformed)", exc.status)
                    writer.write(
                        http11.response_bytes(
                            exc.status, json_bytes(exc.payload()), close=True
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                self._active_requests += 1
                try:
                    keep_alive = await self._serve_one(request, writer)
                finally:
                    self._active_requests -= 1
                await writer.drain()
                if not keep_alive or request.wants_close:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_one(
        self, request: http11.HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one parsed request; returns False to close the connection."""
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            known_path = any(
                path == request.path for _, path in self._routes
            )
            status = 405 if known_path else 404
            code = "method-not-allowed" if known_path else "not-found"
            self._respond(
                writer,
                request.path,
                status,
                error_payload(code, f"{request.method} {request.path}"),
            )
            return True
        try:
            return await handler(request, writer)
        except ProtocolError as exc:
            self._respond(writer, request.path, exc.status, exc.payload())
            return True
        except RequestShed as exc:  # /audit, /compare: a solve inside was shed
            self._respond_shed(writer, request.path, exc.response)
            return True
        except Exception as exc:  # noqa: BLE001 - the service must answer
            self._respond(
                writer,
                request.path,
                500,
                error_payload(
                    "internal-error", f"{type(exc).__name__}: {exc}"
                ),
            )
            return False  # connection state is suspect; close it

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._count(path, status)
        writer.write(
            http11.response_bytes(
                status, json_bytes(payload), headers=headers
            )
        )

    def _respond_shed(self, writer, path: str, response: Response) -> None:
        """429 + ``Retry-After`` for an :class:`~repro.gateway.Overloaded`."""
        self._respond(
            writer,
            path,
            429,
            overloaded_payload(response),
            headers={"Retry-After": retry_after_header(response)},
        )

    def _count(self, path: str, status: int) -> None:
        self._status_counts[str(status)] = (
            self._status_counts.get(str(status), 0) + 1
        )
        self._endpoint_counts[path] = self._endpoint_counts.get(path, 0) + 1

    # -- endpoint handlers -------------------------------------------------
    async def _handle_healthz(self, request, writer) -> bool:
        self._respond(
            writer,
            request.path,
            200,
            {
                "schema": WIRE_SCHEMA,
                "status": "draining" if self._draining else "ok",
                "version": __version__,
                "shards": self.pool.num_shards,
                "pipeline": self.pool.pipeline_name,
            },
        )
        return True

    def _metrics_payload(self) -> Dict[str, object]:
        shard_rows = self.pool.stats()
        totals = {
            "dispatched": sum(row["dispatched"] for row in shard_rows),
            "cache_hits": sum(row["cache_hits"] for row in shard_rows),
            "cache_misses": sum(row["cache_misses"] for row in shard_rows),
            "shed_capacity": sum(
                row["admission"].get("shed_capacity", 0) for row in shard_rows
            ),
            "shed_deadline": sum(
                row["admission"].get("shed_deadline", 0) for row in shard_rows
            ),
        }
        payload = {
            "schema": WIRE_SCHEMA,
            "server": {
                "draining": self._draining,
                "requests_by_status": dict(self._status_counts),
                "requests_by_endpoint": dict(self._endpoint_counts),
                "hot_bodies": {"entries": len(self._hot), **self._hot_counts},
                "dispatch": self.pool.paths(),
            },
            "totals": totals,
            "shards": shard_rows,
        }
        if self.audit_worker is not None:
            payload["audit"] = self.audit_worker.stats()
        return payload

    async def _handle_metrics(self, request, writer) -> bool:
        self._respond(writer, request.path, 200, self._metrics_payload())
        return True

    def _audit_payload(self) -> Dict[str, object]:
        """The ``/audit/report`` body: worker + per-shard capture stats,
        one combined-marks summary row per (scenario, scheduler), and the
        confirmed-violation count operators alert on."""
        if self.audit_worker is None:
            return {"schema": WIRE_SCHEMA, "enabled": False}
        from repro.auditor.middleware import AuditMiddleware
        from repro.auditor.report import (
            confirmed_violations,
            summarize_records,
        )

        records = self.audit_worker.records()
        capture = []
        for index, gateway in enumerate(self.pool.gateways):
            stage = gateway.find(AuditMiddleware)
            row: Dict[str, object] = {"shard": index}
            if stage is not None:
                row.update(stage.stats())
            capture.append(row)
        return {
            "schema": WIRE_SCHEMA,
            "enabled": True,
            "worker": self.audit_worker.stats(),
            "capture": capture,
            "summary": summarize_records(records),
            "confirmed_violations": len(confirmed_violations(records)),
        }

    async def _handle_audit_report(self, request, writer) -> bool:
        self._respond(writer, request.path, 200, self._audit_payload())
        return True

    async def _handle_schedulers(self, request, writer) -> bool:
        self._respond(
            writer,
            request.path,
            200,
            {"schema": WIRE_SCHEMA, "schedulers": registry_rows()},
        )
        return True

    async def _handle_solve(self, request, writer) -> bool:
        digest = hashlib.sha256(request.body).digest()
        row = self._hot.get(digest)
        if row is None:
            gateway_request = parse_solve(parse_json(request.body), self.registry)
        else:
            self._hot.move_to_end(digest)
            gateway_request = row[0]
        response = await self.pool.dispatch(gateway_request)
        if row is not None and response.cache_entry is row[1]:
            self._hot_counts["hits"] += 1
            body = row[2] + json_bytes(served_block(response)) + row[3]
        elif response.ok:
            payload = response_payload(response)
            parts = split_served(payload)
            body = json_bytes(payload) if parts is None else b"".join(parts)
            self._restock(digest, gateway_request, response, parts)
        else:
            self._restock(digest, gateway_request, response)
            self._respond_shed(writer, request.path, response)
            return True
        self._count(request.path, 200)
        writer.write(http11.response_bytes(200, body))
        return True

    def _restock(self, digest, gateway_request, response, parts=None):
        """Answered otherwise than from a row: store one (cache hit) or drop it.

        ``parts`` are the ``split_served`` parts the body was joined from."""
        counts = self._hot_counts
        if response.cache_entry is None or gateway_request.deadline is not None:
            parts = None
        else:
            counts["unspliced"] += parts is None
        if parts is None:
            counts["dropped"] += self._hot.pop(digest, None) is not None
            return
        counts["re_encoded" if digest in self._hot else "admitted"] += 1
        prefix, _served, suffix = parts
        self._hot[digest] = (gateway_request, response.cache_entry, prefix, suffix)
        if len(self._hot) > self._hot_bound:
            self._hot.popitem(last=False)
            counts["dropped"] += 1

    async def _handle_solve_batch(self, request, writer) -> bool:
        """Streaming batch: one NDJSON line per result, completion order.

        Each line carries the ``index`` of its request in the submitted
        array, so clients can reassemble order while consuming results
        the moment the owning shard finishes them — a slow shard never
        blocks lines from fast ones.
        """
        gateway_requests = parse_batch(parse_json(request.body), self.registry)
        self._count(request.path, 200)
        writer.write(http11.chunked_head(200))

        async def solve_one(index: int, item: Request) -> Dict[str, object]:
            shard = self.pool.route(item)
            response = await self.pool.dispatch(item, shard)
            if not response.ok:
                payload = overloaded_payload(response)
            else:
                payload = response_payload(response)
            payload["index"] = index
            payload["shard"] = shard
            return payload

        tasks = [
            asyncio.ensure_future(solve_one(index, item))
            for index, item in enumerate(gateway_requests)
        ]
        try:
            for done in asyncio.as_completed(tasks):
                payload = await done
                writer.write(http11.chunk(json_bytes(payload) + b"\n"))
                await writer.drain()
            writer.write(http11.last_chunk())
        except BaseException:
            for task in tasks:
                task.cancel()
            raise
        return True

    async def _handle_audit(self, request, writer) -> bool:
        instance, scheduler, sp_trials, seed = parse_audit(
            parse_json(request.body), self.registry
        )
        shard, row = await self.pool.run_on_shard(
            instance_fingerprint(instance),
            _audit_on_shard,
            instance,
            scheduler,
            sp_trials,
            seed,
        )
        self._respond(
            writer,
            request.path,
            200,
            {"schema": WIRE_SCHEMA, "shard": shard, "report": row},
        )
        return True

    async def _handle_compare(self, request, writer) -> bool:
        instance, names = parse_compare(parse_json(request.body), self.registry)
        shard, rows = await self.pool.run_on_shard(
            instance_fingerprint(instance),
            Gateway.compare,
            instance,
            names,
        )
        self._respond(
            writer,
            request.path,
            200,
            {"schema": WIRE_SCHEMA, "shard": shard, "rows": rows},
        )
        return True


async def _serve_until_interrupted(server: ReproServer) -> None:
    """Run the accept loop until SIGINT/SIGTERM, then drain gracefully."""
    import signal

    await server.start()
    print(
        f"repro server listening on http://{server.host}:{server.port} "
        f"({server.pool!r})",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        try:
            loop.add_signal_handler(getattr(signal, signame), stop.set)
        except (NotImplementedError, OSError):  # pragma: no cover - non-POSIX
            pass
    await stop.wait()
    print("draining ...", flush=True)
    await server.stop()
    json.dump(server.final_metrics, sys.stdout, indent=2)
    print(flush=True)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    shards: int = 2,
    pipeline: str = "default",
    max_in_flight: Optional[int] = None,
    audit: Optional[float] = None,
    audit_ledger: Optional[str] = None,
    audit_seed: int = 0,
) -> int:
    """Blocking entry point behind ``repro serve``."""
    server = ReproServer(
        host,
        port,
        shards=shards,
        pipeline=pipeline,
        max_in_flight=max_in_flight,
        audit=audit,
        audit_ledger=audit_ledger,
        audit_seed=audit_seed,
    )
    try:
        asyncio.run(_serve_until_interrupted(server))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        pass
    return 0


__all__ = ["ReproServer", "serve"]
