"""The serve workloads: a ``repro serve`` subprocess under the load client.

One *segment* starts a fresh server, sends every warm-up request, and then
measures: closed-loop repeats of a fixed request count over at most
``nproc`` persistent connections, and — where the workload has a paced rate
— an open loop at that rate.  The traced variant adds a *staged replay*:
the same bodies are pushed through the request path's public functions in
the order the server calls them, each call a span, because the server is
another process and no file under ``src/`` records spans itself.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Sequence

import calibrate
import client
import layers
from stats import median, peak_rss_mb, tail
from tracing import Tracer
from workloads import Workload, cycle_order, request_order

HOST = "127.0.0.1"

#: Stage names ``Response.stage_timings`` reports, outermost first.
STAGES = ("admission", "metrics", "coalesce", "warm-start", "cache", "solver")

class Server:
    """``python -m repro serve --port 0 --shards 2`` as a child process."""

    def __init__(self, env: Dict[str, str]):
        self.spawned_at = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--shards", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        banner = self.proc.stdout.readline()
        found = re.search(r"http://[^:]+:(\d+)", banner)
        if found is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.port = int(found.group(1))

    def stop(self) -> float:
        """Drain the server, wait for it, and return its peak RSS in MiB."""
        peak = peak_rss_mb(self.proc.pid) if self.proc.poll() is None else 0.0
        watchdog = threading.Timer(30.0, self.proc.kill)
        watchdog.start()
        try:
            self.proc.send_signal(signal.SIGINT)
            self.proc.stdout.read()  # final metrics; EOF once it has exited
            self.proc.wait()
        finally:
            watchdog.cancel()
            self.proc.stdout.close()
        return peak


#: Connections of the closed and open loops.  One, though the host has two
#: cores: with a request in flight on each, client, event loop and shard
#: threads want both cores at once, and on a shared host the run then
#: measures who else was scheduled (spread 0.5 on ``serve-hot``).  One
#: caller that waits for each reply keeps the request path itself on the clock.
CONNECTIONS = 1


@contextmanager
def one_core() -> Iterator[None]:
    """Keep this process and the children it starts on one core meanwhile.

    A caller that waits for each reply never needs two.  Left to the
    scheduler, client and server sit on different vCPUs: every request
    then crosses twice, each crossing wakes a halted vCPU, which waits for
    the host to schedule it (0.52 -> 1.1 ms per ``serve-hot`` request in the
    host's busy phases), and the reference work on the client's core says
    nothing about the server's.  The highest-numbered core: interrupts tend
    to land on the first.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


async def _warm(port: int, wires: Sequence[bytes], shape: Dict[str, object]) -> int:
    """Requests sent before the clock starts; returns how many bodies they used."""
    pool = len(wires)
    if shape["paced_rps"]:
        # the hot pool: every body once (fills both shard caches), then a
        # short closed loop so connections and code paths are warm as well
        first = await client.closed_loop(HOST, port, wires, range(pool), 1)
        again = await client.closed_loop(
            HOST, port, wires, request_order(shape["warmup"], pool, 0), CONNECTIONS
        )
        assert first.failed == 0 and again.failed == 0, "warm-up request failed"
        return 0
    first = await client.closed_loop(
        HOST, port, wires, range(shape["warmup"]), CONNECTIONS
    )
    assert first.failed == 0, "warm-up request failed"
    return shape["warmup"]


async def _measure(
    port: int, wires: Sequence[bytes], shape: Dict[str, object], seconds: float,
    seed: int, spawned_at: float, fixed: bool,
) -> Dict[str, object]:
    """Warm, then one closed loop; traced and paced, an open loop after it.

    Untraced, the closed loop runs until ``seconds`` are spent (and for at
    least two blocks).  ``fixed`` (the traced run) derives every count from
    ``seconds`` alone, so ``client.sent`` repeats exactly between runs, and
    gives a third of the time to the open loop at the workload's paced rate.
    """
    pool, block = len(wires), shape["block"]
    paced = shape["paced_rps"] if fixed else 0.0
    used = await _warm(port, wires, shape)
    report: Dict[str, object] = {"setup_s": time.time() - spawned_at}
    report["setup_reference_s"] = calibrate.settled_reference()

    budget = seconds * (2.0 / 3.0 if paced else 1.0)
    if shape["paced_rps"]:  # a hot pool is cycled in a seeded order
        order, keep = cycle_order(pool, seed), range(shape["sample"])
    else:  # distinct bodies are each sent once
        order, keep = iter(range(used, pool)), range(used, used + shape["sample"])
    at_least = 2 * block + 1
    if fixed:
        count = max(at_least, round(budget * shape["traced_rps"]))
        order, deadline = itertools.islice(order, count), None
    else:
        deadline = time.perf_counter() + budget
    report["closed"] = await client.closed_loop(
        HOST, port, wires, order, CONNECTIONS, keep, deadline, at_least,
        every=block, between=calibrate.reference,
    )

    if paced:
        count = max(50, int(paced * seconds / 3.0))
        schedule = list(
            zip(client.poisson_schedule(paced, count, seed),
                request_order(count, pool, seed + 1))
        )
        report["paced"] = await client.open_loop(
            HOST, port, wires, schedule, CONNECTIONS
        )
    status, body = await client.fetch(HOST, port, client.get_wire(HOST, "/metrics"))
    assert status == 200, "GET /metrics failed"
    report["server_metrics"] = json.loads(body)
    return report


def run_segment(
    workload: Workload, bodies: Sequence[bytes], seconds: float, seed: int,
    smoke: bool, env: Dict[str, str], fixed: bool = False,
) -> Dict[str, object]:
    """One fresh server, warmed and measured; the server is always stopped."""
    shape = workload.shape(smoke)
    wires = [client.post_wire(HOST, "/solve", body) for body in bodies]
    with one_core():
        server = Server(env)
        try:
            report = asyncio.run(
                _measure(server.port, wires, shape, seconds, seed, server.spawned_at, fixed)
            )
        finally:
            peak_rss_mb = server.stop()
    report["peak_rss_mb"] = peak_rss_mb
    return report


# -- output checks ----------------------------------------------------------
def _core(body: bytes) -> bytes:
    """A response without ``served`` (telemetry that varies between servings)."""
    from repro.server.protocol import json_bytes

    payload = json.loads(body)
    payload.pop("served", None)
    return json_bytes(payload)


def check_responses(bodies: Sequence[bytes], responses: Dict[int, bytes]) -> List[str]:
    """Each sampled response equals a direct dispatch and is PE + SI.

    Returns one message per response that failed (empty = all passed).  PE is
    judged in the scheduler's registered domain, as the fleet rebalancer
    and ``repro audit`` do.
    """
    from repro.core.properties import check_pareto_efficiency, check_sharing_incentive
    from repro.gateway import Gateway
    from repro.registry import scheduler_info
    from repro.server.protocol import json_bytes, parse_json, parse_solve, response_payload

    gateway = Gateway()
    problems: List[str] = []
    for index, served in sorted(responses.items()):
        request = parse_solve(parse_json(bodies[index]), gateway.registry)
        response = gateway.solve(request)
        faults = []
        if _core(served) != _core(json_bytes(response_payload(response))):
            faults.append("server response differs from direct dispatch")
        within = scheduler_info(response.scheduler).pe_within
        if not check_pareto_efficiency(response.allocation, within=within).satisfied:
            faults.append("allocation is not Pareto-efficient")
        # Table 1: sharing incentive is the envy-free (cooperative) variant's
        if within == "envy_free" and not check_sharing_incentive(
            response.allocation
        ).satisfied:
            faults.append("allocation violates sharing incentive")
        if faults:
            problems.append(f"body {index}: {'; '.join(faults)}")
    return problems


# -- the traced variant -----------------------------------------------------
async def _staged_pass(pool, wires, order, tracer) -> Dict[str, object]:
    """The request path as the server walks it, one span per public call."""
    from repro.server import http11, protocol

    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    totals = {"bytes_in": 0, "bytes_out": 0, "outer": 0.0}
    stage_self = dict.fromkeys(STAGES, 0.0)
    per_request: List[float] = []
    registry = pool.gateways[0].registry
    for index in order:
        reader = asyncio.StreamReader()
        reader.feed_data(wires[index])
        reader.feed_eof()
        if tracer is not None:
            tracer.op += 1
        started = time.perf_counter()
        with span("request"):
            with span("server.http11.read"):
                http_request = await http11.read_request(reader)
            with span("server.protocol.parse"):
                request = protocol.parse_solve(
                    protocol.parse_json(http_request.body), registry
                )
            with span("server.shards.route"):
                pool.route(request)
            with span("server.shards.dispatch"):
                response = pool.dispatch_sync(request)
            with span("server.protocol.serialise"):
                body = protocol.json_bytes(protocol.response_payload(response))
            with span("server.http11.write"):
                out = http11.response_bytes(200, body)
        per_request.append(time.perf_counter() - started)
        totals["bytes_in"] += len(wires[index])
        totals["bytes_out"] += len(out)
        # inclusive, outermost first: a stage's own time is what the next
        # one in does not cover
        timings = response.stage_timings
        totals["outer"] += timings[0][1]
        for (name, inclusive), inner in zip(timings, timings[1:] + ((None, 0.0),)):
            stage_self[name] += inclusive - inner[1]
    return {"per_request": per_request, "stage_self": stage_self, **totals}


def staged_replay(
    bodies: Sequence[bytes], shape: Dict[str, object], seconds: float, seed: int,
    spans_path: Optional[str] = None,
) -> Dict[str, float]:
    """Per-layer metrics of the request path, from an in-process shard pool.

    Two passes over the same requests, each on a fresh pool: plain, then
    with spans and the gateway/core/solver wrappers.  The request count
    follows from ``seconds`` alone, so counts repeat exactly between runs.
    """
    import repro.server.protocol as protocol
    from repro.server.shards import ShardPool
    from repro.solver import FORM_CACHE

    wires = [client.post_wire(HOST, "/solve", body) for body in bodies]
    hot = bool(shape["paced_rps"])
    pool_size = len(wires)
    # staged requests run one at a time: half the served rate fills ``seconds``
    count = max(20, int(0.5 * seconds * shape["traced_rps"]))
    order = request_order(count, pool_size, seed) if hot else range(min(count, pool_size))

    async def one_pass(tracer: Optional[Tracer]):
        pool = ShardPool(2)  # fresh caches: the second pass must miss again
        FORM_CACHE.clear()
        try:
            if hot:
                await _staged_pass(pool, wires, range(pool_size), None)
            before = calibrate.settled_reference()
            if tracer is None:
                result, cache = await _staged_pass(pool, wires, order, None), []
            else:
                fingerprint = (protocol, "instance_fingerprint", "gateway.fingerprint", None)
                with layers.install(tracer, layers.gateway_layers(), [fingerprint]):
                    result = await _staged_pass(pool, wires, order, tracer)
                cache = [gateway.cache_info() for gateway in pool.gateways]
            # the pass's median request, in reference seconds
            by = calibrate.scale(before, calibrate.settled_reference())
            result["p50_s"] = by * median(result["per_request"])
            return result, cache
        finally:
            pool.drain()

    tracer = Tracer()
    plain, _ = asyncio.run(one_pass(None))
    traced, cache = asyncio.run(one_pass(tracer))
    if spans_path:
        tracer.write(spans_path)
    requests = len(traced["per_request"])
    metrics, totals = layers.reduce(tracer, "request", requests, requests)
    # the solver stage's time below the allocator boundary is core + solver's
    dispatch = totals["gateway.dispatch"]
    stage_self = dict(traced["stage_self"])
    stage_self["solver"] -= dispatch.total - dispatch.self_time
    for name, own in stage_self.items():
        metrics[f"gateway.stage.{name}_us"] = 1e6 * own / requests
    metrics["gateway.dispatch_us"] = 1e6 * (dispatch.total - traced["outer"]) / requests
    metrics["server.http11.bytes_in"] = traced["bytes_in"] / requests
    metrics["server.http11.bytes_out"] = traced["bytes_out"] / requests
    lookups = sum(c.hits + c.misses for c in cache)
    metrics["gateway.cache.hit_ratio"] = sum(c.hits for c in cache) / max(1, lookups)
    metrics["gateway.cache.evictions"] = sum(c.evictions for c in cache)
    metrics["trace.overhead_pct"] = 100.0 * (traced["p50_s"] / plain["p50_s"] - 1.0)
    metrics["_staged_p50_us"] = 1e6 * plain["p50_s"]
    return metrics


def client_metrics(segment: Dict[str, object]) -> Dict[str, float]:
    """``client.*`` and the server's own counters from one measured segment."""
    closed: client.LoadResult = segment["closed"]
    phases = [closed] + ([segment["paced"]] if "paced" in segment else [])
    latencies = closed.latencies
    pct, value = tail(latencies)
    metrics = {
        "client.sent": sum(result.sent for result in phases),
        "client.ok": sum(result.ok for result in phases),
        "client.shed": sum(result.shed for result in phases),
        "client.errors": sum(result.errors for result in phases),
        "client.latency_p50_ms": 1e3 * median(latencies),
        "client.latency_tail_ms": 1e3 * value,
        "client.latency_tail_pct": pct,
    }
    if "paced" in segment:
        paced: client.LoadResult = segment["paced"]
        pct, value = tail(paced.latencies)
        metrics["client.paced_latency_p50_ms"] = 1e3 * median(paced.latencies)
        metrics["client.paced_latency_tail_ms"] = 1e3 * value
        metrics["client.paced_lateness_tail_ms"] = 1e3 * tail(paced.lateness)[1]
        metrics["client.paced_tail_pct"] = pct
    dispatched = [shard["dispatched"] for shard in segment["server_metrics"]["shards"]]
    metrics["server.shards.imbalance"] = max(dispatched) / (
        sum(dispatched) / len(dispatched)
    )
    return metrics
