"""Integration tests: shard pool routing + the asyncio server end to end.

Every test runs the real server on an OS-assigned port and speaks real
HTTP over a socket — no mocked transports — because the properties under
test (byte-identical differential results, 429 + ``Retry-After`` under
overload, streaming batch framing, graceful drain) live exactly at the
wire boundary.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, Optional, Tuple

import pytest

from repro.core.serialization import instance_to_dict
from repro.gateway import Gateway, Request, default_pipeline, instance_fingerprint
from repro.gateway.middleware import (
    AdmissionMiddleware,
    CacheMiddleware,
    SolverMiddleware,
)
from repro.server import http11
from repro.server.app import ReproServer
from repro.server.protocol import (
    json_bytes,
    parse_json,
    parse_solve,
    response_payload,
)
from repro.server.shards import ShardPool
from repro.workloads.generator import random_instance


def _request_wire(
    method: str, path: str, body: bytes = b"", close: bool = True
) -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _roundtrip(
    port: int, method: str, path: str, body: bytes = b""
) -> Tuple[int, Dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(_request_wire(method, path, body))
        await writer.drain()
        return await http11.read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


def _solve_body(instance, scheduler: str = "oef-coop", **extra) -> bytes:
    return json_bytes(
        {"instance": instance_to_dict(instance), "scheduler": scheduler, **extra}
    )


def _with_server(coro_fn, **server_kwargs):
    """Start a server on port 0, run the test coroutine, always stop."""

    async def go():
        server = ReproServer("127.0.0.1", 0, **server_kwargs)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            if server.final_metrics is None:  # not already stopped by the test
                await server.stop()

    return asyncio.run(go())


# -- shard pool (no sockets) ------------------------------------------------
class TestShardPool:
    def test_routing_is_deterministic_and_spread(self):
        pool = ShardPool(4, pipeline="bare")
        fingerprints = [
            instance_fingerprint(random_instance(4, 3, seed=seed))
            for seed in range(64)
        ]
        shards = [pool.shard_for(f) for f in fingerprints]
        assert shards == [pool.shard_for(f) for f in fingerprints]  # stable
        assert len(set(shards)) == 4  # all shards take a share of 64 keys
        pool.drain()

    def test_consistent_hash_moves_little_on_resize(self):
        # the scaling story: going 4 -> 5 shards should move ~1/5 of keys,
        # not reshuffle everything like `hash % N` would
        before = ShardPool(4, pipeline="bare")
        after = ShardPool(5, pipeline="bare")
        fingerprints = [
            instance_fingerprint(random_instance(4, 3, seed=seed))
            for seed in range(200)
        ]
        moved = sum(
            1
            for f in fingerprints
            if before.shard_for(f) != after.shard_for(f)
        )
        assert moved / len(fingerprints) < 0.45  # far from full reshuffle
        before.drain()
        after.drain()

    def test_same_instance_lands_on_same_shard_cache(self):
        pool = ShardPool(3)
        instance = random_instance(4, 3, seed=7)
        request = Request(instance=instance)
        first = pool.dispatch_sync(request)
        second = pool.dispatch_sync(request)
        assert second.from_cache
        # exactly one shard saw both dispatches
        rows = pool.stats()
        assert sum(row["dispatched"] for row in rows) == 2
        assert max(row["dispatched"] for row in rows) == 2
        assert first.allocation.matrix == pytest.approx(
            second.allocation.matrix
        )
        pool.drain()

    def test_executor_sizing_gives_shed_headroom(self):
        bounded = ShardPool(1, max_in_flight=3)
        assert bounded.executor_threads == 5  # max_in_flight + 2
        unbounded = ShardPool(1)
        assert unbounded.executor_threads == 1
        bounded.drain()
        unbounded.drain()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ShardPool(0)
        with pytest.raises(ValueError):
            ShardPool(1, pipeline="nope")

    def test_drained_pool_refuses_dispatch(self):
        pool = ShardPool(1)
        pool.drain()

        async def go():
            await pool.dispatch(Request(instance=random_instance(3, 2)))

        with pytest.raises(RuntimeError):
            asyncio.run(go())


# -- differential: server bytes == direct dispatch bytes --------------------
class TestDifferential:
    def test_server_solve_is_byte_identical_to_direct_dispatch(self):
        """The acceptance property: same payload bytes via HTTP and direct."""
        instances = [random_instance(5, 3, seed=seed) for seed in range(6)]

        async def run(server):
            for instance in instances:
                status, _, body = await _roundtrip(
                    server.port, "POST", "/solve", _solve_body(instance)
                )
                assert status == 200
                # direct dispatch through an identical pipeline, encoded by
                # the same canonical serialiser
                gateway = Gateway(default_pipeline())
                direct = gateway.solve(
                    Request(
                        instance=instance,
                        scheduler="oef-coop",
                        fingerprint=instance_fingerprint(instance),
                    )
                )
                direct_payload = response_payload(direct)
                served = json.loads(body)
                # the deterministic core must match byte for byte; 'served'
                # telemetry (timings, cache counters) legitimately varies
                for payload in (direct_payload, served):
                    payload.pop("served")
                assert json_bytes(served) == json_bytes(direct_payload)

        _with_server(run, shards=3)


# -- endpoints over the wire ------------------------------------------------
class TestEndpoints:
    def test_healthz_and_schedulers(self):
        async def run(server):
            status, _, body = await _roundtrip(server.port, "GET", "/healthz")
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["shards"] == 2
            status, _, body = await _roundtrip(
                server.port, "GET", "/schedulers"
            )
            names = [row["name"] for row in json.loads(body)["schedulers"]]
            assert "oef-coop" in names

        _with_server(run)

    def test_solve_validation_errors_are_typed(self):
        async def run(server):
            status, _, body = await _roundtrip(
                server.port, "POST", "/solve", b'{"sheduler": "x"}'
            )
            assert status == 400
            assert json.loads(body)["error"]["code"] == "unknown-field"
            status, _, body = await _roundtrip(
                server.port, "POST", "/solve", b"not json"
            )
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad-json"

        _with_server(run)

    def test_unknown_path_and_method(self):
        async def run(server):
            status, _, body = await _roundtrip(server.port, "GET", "/nope")
            assert status == 404
            status, _, body = await _roundtrip(server.port, "GET", "/solve")
            assert status == 405

        _with_server(run)

    def test_metrics_counts_requests_and_shards(self):
        instance = random_instance(4, 3, seed=1)

        async def run(server):
            for _ in range(3):
                await _roundtrip(
                    server.port, "POST", "/solve", _solve_body(instance)
                )
            status, _, body = await _roundtrip(server.port, "GET", "/metrics")
            payload = json.loads(body)
            assert status == 200
            assert payload["server"]["requests_by_status"]["200"] >= 3
            assert payload["totals"]["dispatched"] == 3
            assert payload["totals"]["cache_hits"] == 2  # repeat solves hit
            assert len(payload["shards"]) == 2

        _with_server(run)

    def test_batch_streams_ndjson_with_indices(self):
        instances = [random_instance(4, 3, seed=seed) for seed in range(5)]

        async def run(server):
            body = json_bytes(
                {
                    "requests": [
                        {"instance": instance_to_dict(instance)}
                        for instance in instances
                    ]
                }
            )
            status, headers, payload = await _roundtrip(
                server.port, "POST", "/solve_batch", body
            )
            assert status == 200
            assert headers["transfer-encoding"] == "chunked"
            assert headers["content-type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in payload.splitlines()]
            assert len(lines) == 5
            # completion order may differ; indices must cover the batch
            assert sorted(line["index"] for line in lines) == list(range(5))
            assert all(line["status"] == "ok" for line in lines)
            # every line names its owning shard, consistent with routing
            for line in lines:
                expected = server.pool.shard_for(line["fingerprint"])
                assert line["shard"] == expected

        _with_server(run, shards=3)

    def test_batch_streams_every_shed_item_as_a_typed_error_row(self):
        instances = [random_instance(4, 3, seed=seed) for seed in range(5)]

        async def run(server):
            body = json_bytes(
                {
                    "requests": [
                        {"instance": instance_to_dict(instance)}
                        for instance in instances
                    ]
                }
            )
            status, _, payload = await _roundtrip(
                server.port, "POST", "/solve_batch", body
            )
            assert status == 200
            lines = [json.loads(line) for line in payload.splitlines()]
            assert sorted(line["index"] for line in lines) == list(range(5))
            for line in lines:
                # the 429 body plus index and shard: no status key
                assert "status" not in line
                assert line["error"]["code"] == "overloaded"
                assert line["error"]["retry_after_s"] > 0
                fingerprint = instance_fingerprint(instances[line["index"]])
                assert line["shard"] == server.pool.shard_for(fingerprint)

        # zero slots: admission sheds every item
        _with_server(run, shards=2, max_in_flight=0)

    def test_audit_and_compare_route_by_fingerprint(self, paper_instance):
        async def run(server):
            body = json_bytes(
                {"instance": instance_to_dict(paper_instance), "sp_trials": 2}
            )
            status, _, payload = await _roundtrip(
                server.port, "POST", "/audit", body
            )
            report = json.loads(payload)
            assert status == 200
            expected = server.pool.shard_for(
                instance_fingerprint(paper_instance)
            )
            assert report["shard"] == expected
            assert report["report"]["scheduler"] == "oef-coop"

            body = json_bytes(
                {
                    "instance": instance_to_dict(paper_instance),
                    "schedulers": ["oef-coop", "max-min"],
                }
            )
            status, _, payload = await _roundtrip(
                server.port, "POST", "/compare", body
            )
            rows = json.loads(payload)["rows"]
            assert status == 200
            assert {row["scheduler"] for row in rows} == {"oef-coop", "max-min"}

        _with_server(run)

    def test_keep_alive_serves_sequential_requests(self):
        instance = random_instance(4, 3, seed=2)

        async def run(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                for _ in range(3):
                    writer.write(
                        _request_wire(
                            "POST", "/solve", _solve_body(instance), close=False
                        )
                    )
                    await writer.drain()
                    status, headers, _ = await http11.read_response(reader)
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
            finally:
                writer.close()
                await writer.wait_closed()

        _with_server(run)


class TestBadOptions:
    """Options a scheduler's constructor refuses: a typed 400, not a 500."""

    BAD = [
        ("oef-coop", {"nope": 1}),
        ("oef-coop", {"method": "bogus"}),
        ("oef-noncoop", {"backend": "simplex"}),
    ]

    def test_each_is_a_400_and_the_connection_stays_open(self):
        instance = random_instance(4, 3, seed=5)

        async def run(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                for scheduler, options in self.BAD:
                    body = _solve_body(instance, scheduler, options=options)
                    writer.write(_request_wire("POST", "/solve", body, close=False))
                    await writer.drain()
                    status, headers, raw = await http11.read_response(reader)
                    assert status == 400
                    assert json.loads(raw)["error"]["code"] == "bad-options"
                    assert headers["connection"] == "keep-alive"
                # the same connection still solves
                body = _solve_body(instance, "oef-coop", options={"method": "full"})
                writer.write(_request_wire("POST", "/solve", body, close=False))
                await writer.drain()
                status, _, _ = await http11.read_response(reader)
                assert status == 200
            finally:
                writer.close()
                await writer.wait_closed()
            _, _, raw = await _roundtrip(server.port, "GET", "/metrics")
            assert "500" not in json.loads(raw)["server"]["requests_by_status"]

        _with_server(run)

    def test_one_bad_batch_member_refuses_the_batch_before_streaming(self):
        instance = random_instance(4, 3, seed=6)
        scheduler, options = self.BAD[1]
        body = json_bytes(
            {
                "requests": [
                    {"instance": instance_to_dict(instance)},
                    {
                        "instance": instance_to_dict(instance),
                        "scheduler": scheduler,
                        "options": options,
                    },
                ]
            }
        )

        async def run(server):
            status, headers, raw = await _roundtrip(
                server.port, "POST", "/solve_batch", body
            )
            assert status == 400
            assert "transfer-encoding" not in headers
            assert json.loads(raw)["error"]["code"] == "bad-options"

        _with_server(run)


# -- overload: 429 + Retry-After, no queue collapse -------------------------
class TestOverload:
    def test_cold_burst_sheds_with_retry_after(self):
        """Saturating a 1-slot admission stage yields 429s, not a queue."""
        instances = [random_instance(6, 4, seed=seed) for seed in range(12)]

        async def run(server):
            results = await asyncio.gather(
                *(
                    _roundtrip(
                        server.port,
                        "POST",
                        "/solve",
                        _solve_body(instance, use_cache=False),
                    )
                    for instance in instances
                )
            )
            statuses = [status for status, _, _ in results]
            assert set(statuses) <= {200, 429}  # every request is answered
            assert 200 in statuses  # admitted work still completes
            shed = [
                (headers, json.loads(body))
                for status, headers, body in results
                if status == 429
            ]
            assert shed  # concurrent cold solves overflow one slot
            for headers, payload in shed:
                assert int(headers["retry-after"]) >= 1
                error = payload["error"]
                assert error["code"] == "overloaded"
                assert error["retry_after_s"] > 0
                assert error["disposition"] == "shed-capacity"

        _with_server(run, shards=1, max_in_flight=1)

    def test_metrics_expose_shed_counters(self):
        instances = [random_instance(6, 4, seed=seed) for seed in range(10)]

        async def run(server):
            await asyncio.gather(
                *(
                    _roundtrip(
                        server.port,
                        "POST",
                        "/solve",
                        _solve_body(instance, use_cache=False),
                    )
                    for instance in instances
                )
            )
            status, _, body = await _roundtrip(server.port, "GET", "/metrics")
            payload = json.loads(body)
            total = payload["totals"]
            assert (
                total["shed_capacity"]
                == payload["server"]["requests_by_status"].get("429", 0)
            )
            admission = payload["shards"][0]["admission"]
            assert admission["retry_after_hint_s"] > 0  # EWMA has samples

        _with_server(run, shards=1, max_in_flight=1)

    def test_audit_and_compare_shed_with_429_not_500(self, paper_instance):
        """A shard that sheds inside /audit or /compare answers like /solve.

        Their solves run through the shard's bounded admission stage, so
        a refusal is a typed shed, not an internal error.
        """
        instance = instance_to_dict(paper_instance)

        async def run(server):
            for path, body in (
                ("/audit", {"instance": instance, "sp_trials": 1}),
                ("/compare", {"instance": instance, "schedulers": ["max-min"]}),
            ):
                status, headers, payload = await _roundtrip(
                    server.port, "POST", path, json_bytes(body)
                )
                assert status == 429, (path, payload)
                assert int(headers["retry-after"]) >= 1
                error = json.loads(payload)["error"]
                assert error["code"] == "overloaded"
                assert error["disposition"] == "shed-capacity"
            status, _, body = await _roundtrip(server.port, "GET", "/metrics")
            assert json.loads(body)["server"]["requests_by_status"] == {"429": 2}

        # zero slots: every solve the endpoints attempt is capacity-shed
        _with_server(run, shards=1, max_in_flight=0)


# -- continuous auditing over the wire --------------------------------------
class TestAuditReportEndpoint:
    def test_disabled_by_default(self):
        async def run(server):
            status, _, body = await _roundtrip(
                server.port, "GET", "/audit/report"
            )
            payload = json.loads(body)
            assert status == 200
            assert payload["enabled"] is False
            assert server.audit_worker is None

        _with_server(run)

    def test_audited_server_reports_verdicts(self, tmp_path):
        instances = [random_instance(4, 3, seed=seed) for seed in range(2)]

        async def run(server):
            for instance in instances:
                status, _, _ = await _roundtrip(
                    server.port, "POST", "/solve", _solve_body(instance)
                )
                assert status == 200
            # flush the async auditor so the report is complete
            await asyncio.get_running_loop().run_in_executor(
                None, server.audit_worker.drain
            )
            status, _, body = await _roundtrip(
                server.port, "GET", "/audit/report"
            )
            payload = json.loads(body)
            assert status == 200
            assert payload["enabled"] is True
            assert payload["worker"]["audited"] == 2
            assert payload["worker"]["passed"] == 2
            assert payload["confirmed_violations"] == 0
            assert len(payload["capture"]) == 2  # one entry per shard
            assert sum(entry["captured"] for entry in payload["capture"]) == 2
            (row,) = payload["summary"]
            assert (row["scenario"], row["scheduler"]) == ("serve", "oef-coop")

        _with_server(
            run, shards=2, audit=1.0, audit_ledger=str(tmp_path / "audit")
        )
        # the records were durably appended to the serve stream
        from repro.auditor.ledger import AuditLedger

        assert len(AuditLedger(str(tmp_path / "audit")).records("serve")) == 2

    def test_broken_audit_check_never_surfaces_to_callers(self, tmp_path):
        instance = random_instance(4, 3, seed=11)

        async def run(server):
            def torn_down(allocator, inst):
                raise RuntimeError("audit gateway torn down")

            server.audit_worker.add_check("torn-down", torn_down)
            status, _, body = await _roundtrip(
                server.port, "POST", "/solve", _solve_body(instance)
            )
            assert status == 200  # the caller never sees the audit crash
            assert json.loads(body)["scheduler"] == "oef-coop"
            await server.stop()
            assert server.final_metrics["audit"]["errors"] == 1

        _with_server(
            run, shards=1, audit=1.0, audit_ledger=str(tmp_path / "audit")
        )
        from repro.auditor.ledger import AuditLedger

        (record,) = AuditLedger(str(tmp_path / "audit")).records("serve")
        assert record["verdict"] == "error"
        assert "audit gateway torn down" in record["error"]


# -- graceful drain ---------------------------------------------------------
class TestDrain:
    def test_stop_finishes_in_flight_and_flushes_metrics(self):
        instance = random_instance(5, 3, seed=3)

        async def run(server):
            # launch a solve and immediately begin draining
            in_flight = asyncio.ensure_future(
                _roundtrip(
                    server.port,
                    "POST",
                    "/solve",
                    _solve_body(instance, use_cache=False),
                )
            )
            await asyncio.sleep(0.05)  # connection accepted, solve running
            await server.stop()
            status, _, _ = await in_flight
            assert status == 200  # the in-flight request completed
            assert server.final_metrics is not None
            assert server.final_metrics["server"]["draining"] is True
            assert server.final_metrics["totals"]["dispatched"] == 1
            # new connections are refused after the listener closed
            with pytest.raises(OSError):
                await _roundtrip(server.port, "GET", "/healthz")

        _with_server(run, shards=1)

    def test_healthz_reports_draining(self):
        async def run(server):
            assert json.loads(
                (await _roundtrip(server.port, "GET", "/healthz"))[2]
            )["status"] == "ok"
            await server.stop()
            assert server.final_metrics["server"]["draining"] is True

        _with_server(run)

    def test_stop_flushes_in_flight_audits(self):
        """Drain must wait for queued audits: no pending work is abandoned."""
        instances = [random_instance(4, 3, seed=seed) for seed in range(4)]

        async def run(server):
            for instance in instances:
                status, _, _ = await _roundtrip(
                    server.port, "POST", "/solve", _solve_body(instance)
                )
                assert status == 200
            # stop immediately: queued audits may still be in flight
            await server.stop()
            audit = server.final_metrics["audit"]
            assert audit["pending"] == 0
            assert audit["audited"] == audit["enqueued"] == 4
            assert len(server.audit_worker.records()) == 4

        _with_server(run, shards=2, audit=1.0)


# -- a repeated body is answered from bytes ---------------------------------
class TestHotBodies:
    """The handler's hot-body table skips parse + encode and nothing else."""

    @staticmethod
    async def _post(server, body: bytes):
        status, _, raw = await _roundtrip(server.port, "POST", "/solve", body)
        return status, raw

    @staticmethod
    async def _metrics(server) -> Dict[str, object]:
        _, _, raw = await _roundtrip(server.port, "GET", "/metrics")
        return json.loads(raw)

    @staticmethod
    def _core(raw: bytes) -> bytes:
        payload = json.loads(raw)
        payload.pop("served")
        return json_bytes(payload)

    @staticmethod
    def _direct_core(instance) -> bytes:
        payload = response_payload(Gateway().solve(Request(instance=instance)))
        payload.pop("served")
        return json_bytes(payload)

    @staticmethod
    def _cache_stage(server, body: bytes) -> CacheMiddleware:
        request = parse_solve(parse_json(body), server.registry)
        return server.pool.gateways[server.pool.route(request)].find(
            CacheMiddleware
        )

    def test_fifty_sends_parse_and_encode_at_most_twice(self, monkeypatch):
        # deterministic perf guard: counts, not clocks
        import repro.server.app as app
        import repro.server.protocol as protocol

        calls = {"parse_solve": 0, "allocation_to_dict": 0}
        answered = []

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        async def recording(self, request, shard=None):
            response = await dispatch(self, request, shard)
            answered.append(response)
            return response

        dispatch = ShardPool.dispatch
        monkeypatch.setattr(ShardPool, "dispatch", recording)
        monkeypatch.setattr(
            app, "parse_solve", counting("parse_solve", app.parse_solve)
        )
        monkeypatch.setattr(
            protocol,
            "allocation_to_dict",
            counting("allocation_to_dict", protocol.allocation_to_dict),
        )
        instance = random_instance(5, 3, seed=21)
        body = _solve_body(instance)

        async def run(server):
            first = [await self._post(server, body) for _ in range(50)]
            counted = dict(calls)  # before the test's own encoding below
            before = await self._metrics(server)
            again = [await self._post(server, body) for _ in range(50)]
            after = await self._metrics(server)
            return first + again, counted, before, after

        replies, counted, before, after = _with_server(run, shards=2)
        assert all(status == 200 for status, _ in replies)
        assert 1 <= counted["parse_solve"] <= 2
        assert 1 <= counted["allocation_to_dict"] <= 2
        assert calls == counted  # the second fifty added none

        # byte-identity now covers ``served``: every body, spliced or not,
        # is the canonical encoding of the response the pipeline returned
        assert len(answered) == 100
        for (_, raw), response in zip(replies, answered):
            assert raw == json_bytes(response_payload(response))
        expected = self._direct_core(instance)
        assert all(self._core(raw) == expected for _, raw in replies)

        served = [json.loads(raw)["served"] for _, raw in replies]
        assert [block["disposition"] for block in served] == (
            ["cold"] + ["cache-hit"] * 99
        )
        hits = [block["cache_hits"] for block in served]
        assert hits == list(range(100))  # strictly increasing: the stage ran

        def advanced(read):
            return read(after) - read(before)

        assert advanced(lambda m: m["totals"]["dispatched"]) == 50
        assert advanced(lambda m: m["totals"]["cache_hits"]) == 50
        # the spy sits on ``dispatch``, which both paths pass: every hit ran
        # on the event loop, only the cold first send on a shard thread
        assert after["server"]["dispatch"] == {
            "loop": 99, "loop_solved": 0, "shard": 1,
        }
        assert advanced(
            lambda m: sum(row["admission"]["admitted"] for row in m["shards"])
        ) == 50
        assert after["server"]["hot_bodies"] == {
            "entries": 1, "hits": 98, "admitted": 1,
            "re_encoded": 0, "dropped": 0, "unspliced": 0,
        }
        assert after["server"]["requests_by_endpoint"]["/solve"] == 100

    def test_bytes_never_outlive_their_cache_entry(self):
        instance = random_instance(5, 3, seed=22)
        body = _solve_body(instance)
        # same instance, other bytes: shares the cache entry, not the row
        twin = _solve_body(instance, priority=0)
        expected = self._direct_core(instance)

        async def run(server):
            cache = self._cache_stage(server, body)
            dispositions = []

            async def send(wire=body):
                status, raw = await self._post(server, wire)
                assert status == 200 and self._core(raw) == expected
                dispositions.append(json.loads(raw)["served"]["disposition"])
                return (await self._metrics(server))["server"]["hot_bodies"]

            await send(), await send()
            assert (await send())["hits"] == 1
            assert cache.invalidate() == 1
            hot = await send()  # the entry is gone: solved again, row dropped
            assert (hot["entries"], hot["dropped"]) == (0, 1)
            hot = await send()  # encoded again, from the new entry
            assert (hot["entries"], hot["admitted"], hot["hits"]) == (1, 2, 1)
            assert (await send())["hits"] == 2

            # the entry replaced behind the row's back, no cold answer seen
            cache.invalidate()
            await send(twin)
            hot = await send()
            assert (hot["re_encoded"], hot["hits"], hot["dropped"]) == (1, 2, 1)
            assert (await send())["hits"] == 3
            assert dispositions == [
                "cold", "cache-hit", "cache-hit", "cold", "cache-hit",
                "cache-hit", "cold", "cache-hit", "cache-hit",
            ]

        _with_server(run, shards=2)

    def test_each_response_is_encoded_once_and_byte_identical(self, monkeypatch):
        import repro.server.app as app
        import repro.server.protocol as protocol

        encoded, answered = [], []

        def counting(payload):
            if "allocation" in payload:  # a response's head, or all of it
                encoded.append(1)
            return protocol_json_bytes(payload)

        async def recording(self, request, shard=None):
            response = await dispatch(self, request, shard)
            answered.append(response)
            return response

        protocol_json_bytes, dispatch = protocol.json_bytes, ShardPool.dispatch
        monkeypatch.setattr(ShardPool, "dispatch", recording)
        monkeypatch.setattr(protocol, "json_bytes", counting)
        monkeypatch.setattr(app, "json_bytes", counting)
        instance = random_instance(5, 3, seed=24)
        body, timed = _solve_body(instance), _solve_body(instance, deadline_in=60)

        async def run(server):
            # cold, the hit that stores a row, the row, a deadline's hit
            replies = [await self._post(server, wire) for wire in (body,) * 3 + (timed,)]
            return replies, len(encoded), await self._metrics(server)

        replies, encodes, metrics = _with_server(run, shards=2)
        assert [json.loads(raw)["served"]["disposition"] for _, raw in replies] == (
            ["cold"] + ["cache-hit"] * 3
        )
        assert encodes == 3  # once per response not written from a row
        for (status, raw), response in zip(replies, answered):
            assert status == 200 and raw == protocol_json_bytes(response_payload(response))
        assert metrics["server"]["hot_bodies"] == {
            "entries": 1, "hits": 1, "admitted": 1,
            "re_encoded": 0, "dropped": 0, "unspliced": 0,
        }

    def test_deadlines_and_uncached_bodies_never_get_a_row(self):
        instance = random_instance(4, 3, seed=23)
        expected = self._direct_core(instance)

        async def run(server):
            for _ in range(4):
                status, raw = await self._post(
                    server, _solve_body(instance, deadline_in=0)
                )
                assert status == 429
                error = json.loads(raw)["error"]
                assert error["disposition"] == "shed-deadline"
            for _ in range(4):
                status, raw = await self._post(
                    server, _solve_body(instance, use_cache=False)
                )
                assert status == 200 and self._core(raw) == expected
                assert json.loads(raw)["served"]["disposition"] == "cold"
            # a live deadline is a cache hit, but its Request is not a
            # function of the bytes (the deadline is absolute)
            await self._post(server, _solve_body(instance))
            for _ in range(4):
                status, raw = await self._post(
                    server, _solve_body(instance, deadline_in=60)
                )
                assert status == 200 and self._core(raw) == expected
                assert json.loads(raw)["served"]["disposition"] == "cache-hit"
            payload = await self._metrics(server)
            assert payload["totals"]["shed_deadline"] == 4
            assert payload["server"]["hot_bodies"] == {
                "entries": 0, "hits": 0, "admitted": 0,
                "re_encoded": 0, "dropped": 0, "unspliced": 0,
            }

        _with_server(run, shards=2)

    def test_audit_tap_still_sees_every_hot_request(self, tmp_path, monkeypatch):
        from repro.auditor.middleware import AuditMiddleware

        seen = []
        handle = AuditMiddleware.handle

        def tapped(self, request, next):
            seen.append(self)
            return handle(self, request, next)

        monkeypatch.setattr(AuditMiddleware, "handle", tapped)
        body = _solve_body(random_instance(4, 3, seed=24))

        async def run(server):
            for _ in range(6):
                assert (await self._post(server, body))[0] == 200
            assert len(seen) == 6
            await asyncio.get_running_loop().run_in_executor(
                None, server.audit_worker.drain
            )
            assert server.audit_worker.stats()["enqueued"] == 1  # one key
            # forget the stage's settled key: the next request, a hot one,
            # reaches the worker again (which knows the key: a duplicate)
            seen[0].reset()
            assert (await self._post(server, body))[0] == 200
            stats = server.audit_worker.stats()
            assert (stats["enqueued"], stats["duplicates"]) == (1, 1)
            hot = (await self._metrics(server))["server"]["hot_bodies"]
            assert (hot["admitted"], hot["hits"]) == (1, 5)

        _with_server(
            run, shards=2, audit=1.0, audit_ledger=str(tmp_path / "audit")
        )

    def test_zero_slots_shed_a_repeated_body_every_time(self):
        body = _solve_body(random_instance(4, 3, seed=25))

        async def run(server):
            for _ in range(5):
                status, raw = await self._post(server, body)
                assert status == 429
                error = json.loads(raw)["error"]
                assert error["disposition"] == "shed-capacity"
            payload = await self._metrics(server)
            assert payload["totals"]["shed_capacity"] == 5
            assert payload["totals"]["dispatched"] == 5
            assert payload["server"]["hot_bodies"]["entries"] == 0

        _with_server(run, shards=2, max_in_flight=0)

    def test_a_shed_drops_the_row_and_the_next_hit_restores_it(self):
        body = _solve_body(random_instance(4, 3, seed=26))

        async def run(server):
            for _ in range(3):
                assert (await self._post(server, body))[0] == 200
            admission = server.pool.gateways[0].find(AdmissionMiddleware)
            admission.max_in_flight = 0
            assert (await self._post(server, body))[0] == 429
            admission.max_in_flight = None
            for _ in range(2):
                status, raw = await self._post(server, body)
                assert status == 200
                assert json.loads(raw)["served"]["disposition"] == "cache-hit"
            hot = (await self._metrics(server))["server"]["hot_bodies"]
            assert hot == {
                "entries": 1, "hits": 2, "admitted": 2,
                "re_encoded": 0, "dropped": 1, "unspliced": 0,
            }

        _with_server(run, shards=1, max_in_flight=4)

    def test_table_is_bounded_by_the_pools_cache_bound(self):
        bodies = [
            _solve_body(random_instance(3, 2, seed=seed)) for seed in (27, 28)
        ]

        async def run(server):
            assert server._hot_bound == 2 * 4096  # two default cache stages
            server._hot_bound = 1
            for body in bodies:
                for _ in range(2):
                    assert (await self._post(server, body))[0] == 200
            hot = (await self._metrics(server))["server"]["hot_bodies"]
            assert (hot["entries"], hot["admitted"], hot["dropped"]) == (1, 2, 1)
            # the survivor is the body seen last
            assert (await self._post(server, bodies[1]))[0] == 200
            hot = (await self._metrics(server))["server"]["hot_bodies"]
            assert hot["hits"] == 1

        _with_server(run, shards=2)

    def test_a_payload_that_does_not_split_is_counted_not_served(
        self, monkeypatch
    ):
        import repro.server.app as app

        monkeypatch.setattr(app, "split_served", lambda payload: None)
        instance = random_instance(4, 3, seed=29)
        expected = self._direct_core(instance)

        async def run(server):
            for _ in range(4):
                status, raw = await self._post(server, _solve_body(instance))
                assert status == 200 and self._core(raw) == expected
            hot = (await self._metrics(server))["server"]["hot_bodies"]
            assert (hot["entries"], hot["hits"], hot["unspliced"]) == (0, 0, 3)

        _with_server(run, shards=2)

    def test_final_metrics_carry_the_table_counters(self):
        body = _solve_body(random_instance(4, 3, seed=30))

        async def run(server):
            for _ in range(3):
                await self._post(server, body)
            await server.stop()
            hot = server.final_metrics["server"]["hot_bodies"]
            assert (hot["entries"], hot["admitted"], hot["hits"]) == (1, 1, 1)

        _with_server(run, shards=2)


# -- cache hits answered on the event loop ----------------------------------
#: Bound on each test below: a hang fails the test instead of stalling CI.
DEADLINE_S = 60.0


def _within(seconds: float, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on a daemon thread; fail unless it returns in time."""
    outcome = []

    def target():
        try:
            outcome.append((True, fn(*args, **kwargs)))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome.append((False, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"no answer within {seconds} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


class TestLoopAnswers:
    """A request its shard's cache holds runs the pipeline on the event loop."""

    @staticmethod
    async def _post(server, body: bytes):
        return await _roundtrip(server.port, "POST", "/solve", body)

    @staticmethod
    async def _metrics(server) -> Dict[str, object]:
        _, _, raw = await _roundtrip(server.port, "GET", "/metrics")
        return json.loads(raw)

    def test_repeats_run_on_the_loop_and_distinct_bodies_never_do(self):
        repeated = _solve_body(random_instance(5, 3, seed=40))
        distinct = [
            _solve_body(random_instance(4, 3, seed=seed)) for seed in range(41, 49)
        ]

        async def run(server):
            for _ in range(10):
                assert (await self._post(server, repeated))[0] == 200
            payload = await self._metrics(server)
            assert payload["totals"]["cache_hits"] == 9
            assert payload["server"]["dispatch"] == {
                "loop": 9, "loop_solved": 0, "shard": 1,
            }
            for body in distinct:
                assert (await self._post(server, body))[0] == 200
            payload = await self._metrics(server)
            assert payload["server"]["dispatch"] == {
                "loop": 9, "loop_solved": 0, "shard": 9,
            }
            # every routed request counts, whichever thread ran it
            assert payload["totals"]["dispatched"] == 18
            assert sum(row["dispatched"] for row in payload["shards"]) == 18

        _within(DEADLINE_S, _with_server, run, shards=2)

    def test_a_peek_that_lies_still_answers_right_and_is_counted(
        self, monkeypatch
    ):
        monkeypatch.setattr(Gateway, "holds", lambda self, request: True)
        instance = random_instance(5, 3, seed=50)
        expected = TestHotBodies._direct_core(instance)

        async def run(server):
            status, _, raw = await self._post(server, _solve_body(instance))
            assert status == 200 and TestHotBodies._core(raw) == expected
            assert json.loads(raw)["served"]["disposition"] == "cold"
            assert (await self._metrics(server))["server"]["dispatch"] == {
                "loop": 1, "loop_solved": 1, "shard": 0,
            }

        _within(DEADLINE_S, _with_server, run, shards=2)

    def test_an_eviction_between_peek_and_lookup_is_solved_on_the_loop(
        self, monkeypatch
    ):
        pool = ShardPool(
            1, pipeline_factory=lambda: default_pipeline(max_cache_entries=1)
        )
        wanted, other = (
            Request(instance=random_instance(4, 3, seed=seed)) for seed in (51, 52)
        )
        peek = Gateway.holds

        def racing(self, request):
            held = peek(self, request)
            if held:  # an insert lands between the peek and the lookup
                self.solve(other)
            return held

        async def go():
            first = await pool.dispatch(wanted)
            monkeypatch.setattr(Gateway, "holds", racing)
            return first, await pool.dispatch(wanted)

        try:
            first, second = _within(DEADLINE_S, asyncio.run, go())
        finally:
            pool.drain()
        assert second.disposition == "cold"
        assert second.allocation.matrix.tobytes() == (
            first.allocation.matrix.tobytes()
        )
        assert pool.paths() == {"loop": 1, "loop_solved": 1, "shard": 1}

    def test_concurrent_repeats_and_distinct_bodies_agree_with_direct(self):
        instances = [random_instance(4, 3, seed=seed) for seed in range(60, 66)]
        expected = [TestHotBodies._direct_core(instance) for instance in instances]
        # the first body is sent four times a round, the others once
        picks = [0, 0, 0, 0] + list(range(1, len(instances)))

        async def run(server):
            for _ in range(4):
                replies = await asyncio.gather(
                    *(
                        self._post(server, _solve_body(instances[pick]))
                        for pick in picks
                    )
                )
                for pick, (status, _, raw) in zip(picks, replies):
                    assert status == 200
                    assert TestHotBodies._core(raw) == expected[pick]
            payload = await self._metrics(server)
            paths = payload["server"]["dispatch"]
            assert paths["loop"] + paths["shard"] == 4 * len(picks)
            assert paths["loop"] >= 3 * len(picks)  # rounds 2-4 all hit
            assert paths["loop_solved"] == 0
            assert payload["totals"]["dispatched"] == 4 * len(picks)

        _within(DEADLINE_S, _with_server, run, shards=2)

    def test_a_drained_pool_refuses_a_held_request_as_it_refuses_a_miss(self):
        pool = ShardPool(1)
        held = Request(instance=random_instance(3, 2, seed=70))
        missing = Request(instance=random_instance(3, 2, seed=71))
        pool.dispatch_sync(held)
        assert pool.gateways[0].holds(held)
        assert not pool.gateways[0].holds(missing)
        pool.drain()

        def refusal(request) -> str:
            with pytest.raises(RuntimeError) as caught:
                asyncio.run(pool.dispatch(request))
            return str(caught.value)

        assert refusal(held) == refusal(missing) == "shard pool is drained"
        assert pool.stats()[0]["dispatched"] == 1
        assert pool.paths() == {"loop": 0, "loop_solved": 0, "shard": 0}

    def test_a_held_slot_still_sheds_a_repeated_body(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        run_solver = SolverMiddleware._run

        def blocking(info, request):
            if not request.use_cache:  # the slot holder
                entered.set()
                release.wait(DEADLINE_S)
            return run_solver(info, request)

        monkeypatch.setattr(SolverMiddleware, "_run", staticmethod(blocking))
        instance = random_instance(4, 3, seed=80)
        body = _solve_body(instance)

        async def run(server):
            for _ in range(2):  # cold, then a hit: the key is held
                assert (await self._post(server, body))[0] == 200
            holder = asyncio.ensure_future(
                self._post(server, _solve_body(instance, use_cache=False))
            )
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, entered.wait, DEADLINE_S)
            try:
                for _ in range(3):
                    status, headers, raw = await self._post(server, body)
                    assert status == 429
                    assert int(headers["retry-after"]) >= 1
                    error = json.loads(raw)["error"]
                    assert error["disposition"] == "shed-capacity"
            finally:
                release.set()
            assert (await holder)[0] == 200
            payload = await self._metrics(server)
            assert payload["totals"]["shed_capacity"] == 3
            assert payload["server"]["dispatch"] == {
                "loop": 4, "loop_solved": 0, "shard": 2,
            }

        _within(DEADLINE_S, _with_server, run, shards=1, max_in_flight=1)


# -- names that used to hash alike ------------------------------------------
class TestNameAliasing:
    """Bodies whose names collided under the joined-string fingerprint."""

    @staticmethod
    def _body(users) -> bytes:
        return json_bytes(
            {
                "instance": {
                    "schema": "repro/instance-v1",
                    "users": users,
                    "gpu_types": ["slow", "fast"],
                    "speedups": [[1.0, 2.0], [1.0, 3.0]],
                    "capacities": [2.0, 2.0],
                }
            }
        )

    def test_alternating_bodies_each_get_their_own_names_back(self):
        pair = (["a\x1fb", "c"], ["a", "b\x1fc"])

        async def run(server):
            fingerprints = set()
            for round_ in range(4):  # cold, admitted, then from bytes
                for users in pair:
                    status, _, raw = await _roundtrip(
                        server.port, "POST", "/solve", self._body(users)
                    )
                    payload = json.loads(raw)
                    assert status == 200
                    assert payload["allocation"]["instance"]["users"] == users
                    assert payload["served"]["disposition"] == (
                        "cache-hit" if round_ else "cold"
                    )
                    fingerprints.add(payload["fingerprint"])
            assert len(fingerprints) == 2
            _, _, raw = await _roundtrip(server.port, "GET", "/metrics")
            hot = json.loads(raw)["server"]["hot_bodies"]
            assert (hot["entries"], hot["hits"]) == (2, 4)

        _with_server(run, shards=2)

    @pytest.mark.parametrize("users", [[1, 2], ["a", 2], "ab", [["a"], "b"]])
    def test_non_string_names_are_a_typed_400(self, users):
        async def run(server):
            status, _, raw = await _roundtrip(
                server.port, "POST", "/solve", self._body(users)
            )
            assert status == 400
            assert json.loads(raw)["error"]["code"] == "bad-instance"

        _with_server(run, shards=1)
