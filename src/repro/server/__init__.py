"""``repro.server``: the async sharded serving layer over the gateway.

The middleware gateway (:mod:`repro.gateway`) has admission control,
coalescing, typed ``Overloaded`` shedding, and the content-hash cache
— everything a production scheduler service needs except a socket.  This
package is the socket: a stdlib-only asyncio HTTP/1.1 front end
(:class:`ReproServer`) over a consistent-hash
:class:`~repro.server.shards.ShardPool` of gateway workers, speaking the
JSON wire protocol in :mod:`repro.server.protocol`, with an open-loop
bursty load generator (:mod:`repro.server.loadgen`) as its test harness.

Layers (each importable and testable alone):

==============================  =========================================
:mod:`repro.server.http11`      asyncio HTTP/1.1 request/response codec
:mod:`repro.server.protocol`    JSON wire schemas ↔ gateway envelopes
:mod:`repro.server.shards`      consistent-hash pool of gateway workers
:mod:`repro.server.app`         :class:`ReproServer` + ``repro serve``
:mod:`repro.server.loadgen`     open-loop bursty client, ``repro loadtest``
==============================  =========================================

Quick start::

    server = ReproServer(port=0, shards=4)   # port 0: OS-assigned
    await server.start()
    # POST {"instance": {...}, "scheduler": "oef-coop"} to /solve
    await server.stop()                      # graceful drain

See ``docs/server.md`` for the wire reference, shard routing diagram,
and overload semantics.
"""

from repro.server.app import ReproServer, serve
from repro.server.loadgen import (
    LoadGenConfig,
    LoadReport,
    run_load,
    run_load_async,
)
from repro.server.protocol import (
    MAX_BATCH_ITEMS,
    ProtocolError,
    WIRE_SCHEMA,
    error_payload,
    json_bytes,
    overloaded_payload,
    parse_batch,
    parse_solve,
    response_payload,
    retry_after_header,
)
from repro.server.shards import ShardPool

__all__ = [
    "LoadGenConfig",
    "LoadReport",
    "MAX_BATCH_ITEMS",
    "ProtocolError",
    "ReproServer",
    "ShardPool",
    "WIRE_SCHEMA",
    "error_payload",
    "json_bytes",
    "overloaded_payload",
    "parse_batch",
    "parse_solve",
    "response_payload",
    "retry_after_header",
    "run_load",
    "run_load_async",
    "serve",
]
