"""The benchmark's load client: a few persistent HTTP/1.1 connections.

``repro.server.loadgen`` opens one connection per request over up to 128
sockets, so what it measures is mostly ``connect()``.  This client keeps
``connections`` sockets open for a whole phase and offers two loops:

* :func:`closed_loop` — each connection sends its next request only after
  the previous answer arrived (callers that wait for a reply);
* :func:`open_loop` — requests are *due* on a seeded schedule whatever the
  server does (independent users).  Latency is timed from the due time, so
  a stall charges every request queued behind it, and how late the
  generator itself ran is reported next to it.

Responses are parsed with the server's own ``http11.read_response``.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.server import http11

#: The open loop sleeps until this long before a request is due and then
#: yields to the event loop without sleeping: the selector rounds timeouts
#: up to a millisecond, which is as large as a cache-hit response time.
SPIN_S = 0.002

_TRANSPORT_ERRORS = (OSError, asyncio.IncompleteReadError, ValueError, EOFError)


def post_wire(host: str, path: str, body: bytes) -> bytes:
    """One keep-alive ``POST`` as the bytes that go on the socket."""
    return (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def get_wire(host: str, path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")


def poisson_schedule(rate: float, count: int, seed: int) -> List[float]:
    """``count`` due offsets (s) with exponential gaps at ``rate`` per second."""
    rng = random.Random(seed)
    offsets, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


@dataclass
class LoadResult:
    """What one phase observed; a failed request has no latency sample."""

    sent: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    #: seconds, HTTP 200 only; from the send (closed) or the due time (open)
    latencies: List[float] = field(default_factory=list)
    #: open loop only: how long after its due time each request was written
    lateness: List[float] = field(default_factory=list)
    #: closed loop with ``between``: ``(answers so far, paused at, resumed
    #: at, what between() returned)`` for every pause, the first before any request
    pauses: List[Tuple[int, float, float, object]] = field(default_factory=list)
    #: request index -> response body, for the indices asked for in ``keep``
    bodies: Dict[int, bytes] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    def record(self, status: int, latency: float) -> None:
        self.sent += 1
        if status == 200:
            self.ok += 1
            self.latencies.append(latency)
        elif status == 429:
            self.shed += 1
        else:
            self.errors += 1

    def blocks(self) -> List[Tuple[float, float, object, object]]:
        """``(wall seconds, median latency, between() before, between() after)``
        of each stretch of answers between two pauses."""
        return [
            (
                after[1] - before[2],
                statistics.median(self.latencies[before[0]:after[0]]),
                before[3],
                after[3],
            )
            for before, after in zip(self.pauses, self.pauses[1:])
        ]


class Connection:
    """One persistent connection; reopened after a transport error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._reader = self._writer = None

    async def request(self, wire: bytes) -> Tuple[int, bytes]:
        """``(status, body)``; status -1 marks a transport error."""
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            self._writer.write(wire)
            await self._writer.drain()
            status, _headers, body = await http11.read_response(self._reader)
            return status, body
        except _TRANSPORT_ERRORS:
            await self.close()
            return -1, b""

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def fetch(host: str, port: int, wire: bytes) -> Tuple[int, bytes]:
    """One request on a connection of its own (warm-up, ``GET /metrics``)."""
    connection = Connection(host, port)
    try:
        return await connection.request(wire)
    finally:
        await connection.close()


async def closed_loop(
    host: str,
    port: int,
    wires: Sequence[bytes],
    order: Iterable[int],
    connections: int,
    keep: Iterable[int] = (),
    deadline: Optional[float] = None,
    at_least: int = 0,
    every: int = 0,
    between: Optional[Callable[[], object]] = None,
) -> LoadResult:
    """Send ``wires[i]`` for every ``i`` in ``order``, one in flight per
    connection, until ``order`` ends or — once ``at_least`` requests were
    answered — ``perf_counter()`` passes ``deadline``.

    With ``between``, the loop pauses before the first request and after
    every ``every`` answers to call it (one connection: nothing is in
    flight meanwhile); ``LoadResult.blocks`` then gives each stretch.
    """
    result = LoadResult()

    def pause() -> None:
        paused_at = time.perf_counter()
        value = between()
        result.pauses.append((result.ok, paused_at, time.perf_counter(), value))

    keep = frozenset(keep)
    pending = iter(order)  # shared: each index is taken by exactly one connection

    async def drive() -> None:
        connection = Connection(host, port)
        try:
            for index in pending:
                sent_at = time.perf_counter()
                if deadline is not None and sent_at >= deadline and (
                    result.sent >= at_least
                ):
                    break
                status, body = await connection.request(wires[index])
                result.record(status, time.perf_counter() - sent_at)
                if index in keep and status == 200:
                    result.bodies[index] = body
                if between is not None and result.sent % every == 0:
                    pause()
        finally:
            await connection.close()

    if between is not None:
        pause()
    await asyncio.gather(*(drive() for _ in range(connections)))
    return result


async def open_loop(
    host: str,
    port: int,
    wires: Sequence[bytes],
    schedule: Sequence[Tuple[float, int]],
    connections: int,
) -> LoadResult:
    """Send ``wires[i]`` at ``start + offset`` for every ``(offset, i)``.

    The connections share the schedule in order; when all are busy the
    next request waits, and that wait is part of its latency.
    """
    result = LoadResult()
    pending = iter(schedule)

    async def drive(start: float) -> None:
        connection = Connection(host, port)
        try:
            for offset, index in pending:
                due = start + offset
                coarse = due - time.perf_counter() - SPIN_S
                if coarse > 0:
                    await asyncio.sleep(coarse)
                while time.perf_counter() < due:
                    await asyncio.sleep(0)
                result.lateness.append(time.perf_counter() - due)
                status, _body = await connection.request(wires[index])
                result.record(status, time.perf_counter() - due)
        finally:
            await connection.close()

    started = time.perf_counter()
    await asyncio.gather(*(drive(started) for _ in range(connections)))
    return result
