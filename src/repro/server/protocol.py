"""The JSON wire protocol: endpoint schemas over the gateway envelopes.

Pure functions (no sockets, no asyncio) mapping HTTP bodies onto the
gateway's :class:`~repro.gateway.Request` / :class:`~repro.gateway.Response`
/ :class:`~repro.gateway.Overloaded` envelopes and back — the network
layer (:mod:`repro.server.app`) does IO, this module does meaning.
Keeping it pure makes the wire format unit-testable and doctestable
(``docs/server.md``) and guarantees the differential property the server
tests assert: a server-routed solve serialises through exactly the
same code path as a direct in-process dispatch, so the results are
byte-identical.

Endpoints (see ``docs/server.md`` for the full wire reference):

===========================  ================================================
``POST /solve``              one :class:`Request` → one allocation payload
``POST /solve_batch``        many requests → streaming NDJSON, one line per
                             result *in completion order* (each line carries
                             its request ``index``)
``POST /audit``              Table-1 property audit of one instance
``POST /compare``            per-scheduler summary rows for one instance
``GET /schedulers``          the scheduler registry (``list-schedulers``)
``GET /healthz``             liveness + shard fan-out
``GET /metrics``             server counters, per-shard cache/admission stats
===========================  ================================================

Each request body is one :mod:`repro.fieldspec` table.  Validation is
strict: unknown fields are rejected with a typed error payload
(``{"error": {"code": ..., "message": ...}}``) rather than silently
ignored, so client typos (``sheduler``) fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.serialization import (
    allocation_to_dict,
    instance_from_dict,
)
from repro.exceptions import ReproError, SchemaError
from repro.fieldspec import (
    instance_of,
    integer,
    list_of,
    nullable,
    number,
    record,
)
from repro.gateway import Request, Response, deadline_in, instance_fingerprint
from repro.gateway.middleware import derive_key
from repro.registry import SchedulerRegistry

#: Version tag stamped on every wire payload this server emits.
WIRE_SCHEMA = "repro/serve-v1"

#: Upper bound on one batch request's item count.
MAX_BATCH_ITEMS = 4096


class ProtocolError(Exception):
    """A request the protocol refuses: HTTP status + typed error payload."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def payload(self) -> Dict[str, object]:
        return error_payload(self.code, self.message)


def error_payload(code: str, message: str, **extra: object) -> Dict[str, object]:
    """The typed error body every non-2xx response carries."""
    return {
        "schema": WIRE_SCHEMA,
        "error": {"code": code, "message": message, **extra},
    }


def json_bytes(payload: Mapping[str, object]) -> bytes:
    """Canonical JSON encoding (sorted keys, compact separators).

    One encoder for every payload the server writes, so equality of
    payloads implies equality of bytes — the differential test compares
    raw HTTP bodies against locally encoded dispatch results.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def parse_json(body: bytes) -> Dict[str, object]:
    if not body:
        raise ProtocolError(400, "empty-body", "expected a JSON body")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(400, "bad-json", f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(400, "bad-json", "expected a JSON object")
    return payload


# -- request bodies -----------------------------------------------------------
_OBJECT = record({})
_STRING = instance_of(str, "a string")
_COUNT = integer(ge=0)

_SOLVE = record(
    {
        "instance": _OBJECT,  # repro/instance-v1, decoded by _parse_instance
        "scheduler": _STRING,
        "options": _OBJECT,
        "priority": integer(),
        "deadline_in": number(ge=0),  # seconds from now
        "use_cache": instance_of(bool, "a boolean"),
    },
    optional=("scheduler", "options", "priority", "deadline_in", "use_cache"),
    closed=True,
)
_BATCH = record({"requests": list_of(_OBJECT, non_empty=True)}, closed=True)
_AUDIT = record(
    {
        "instance": _OBJECT,
        "scheduler": _STRING,
        "sp_trials": _COUNT,
        "seed": _COUNT,
    },
    optional=("scheduler", "sp_trials", "seed"),
    closed=True,
)
_COMPARE = record(
    {"instance": _OBJECT, "schedulers": nullable(list_of(_STRING))},
    closed=True,
)

#: Wire codes that are not ``bad-<field>``.  ``""`` is the body itself:
#: bodies and batch items are already objects, so only unknown keys fail it.
_CODES = {
    "": "unknown-field",
    "instance": "missing-instance",
    "deadline_in": "bad-deadline",
    "requests": "bad-batch",
}


def _check(spec, payload: Mapping[str, object], where: str) -> None:
    """Run one body spec; a rejection becomes the field's typed 400."""
    try:
        spec(payload)
    except SchemaError as exc:
        field = exc.path.split("[")[0].split(".")[0]
        code = _CODES.get(field) or "bad-" + field.replace("_", "-")
        raise ProtocolError(400, code, f"{where}: {exc}") from None


def _parse_instance(payload: Mapping[str, object]):
    try:
        return instance_from_dict(payload["instance"])
    except (ReproError, TypeError, ValueError) as exc:
        raise ProtocolError(400, "bad-instance", str(exc)) from exc


def _resolve(registry: SchedulerRegistry, name: str) -> str:
    try:
        return registry.resolve(name)
    except ReproError as exc:
        raise ProtocolError(400, "unknown-scheduler", str(exc)) from exc


def parse_solve(
    payload: Mapping[str, object],
    registry: SchedulerRegistry,
    where: str = "solve request",
) -> Request:
    """Validate one solve body and build the normalised gateway request.

    The instance fingerprint is computed here (it is also the shard
    routing key), the scheduler alias resolved and the cache key derived,
    so every downstream layer — shard pool, gateway stages — shares one
    identity without re-hashing, and the gateway dispatches it unchanged.
    The scheduler is built once from its options, so options it refuses
    are a ``400 bad-options`` here rather than a failure in a shard.
    """
    _check(_SOLVE, payload, where)
    instance = _parse_instance(payload)
    deadline = None
    if "deadline_in" in payload:
        deadline = deadline_in(float(payload["deadline_in"]))
    scheduler = _resolve(registry, payload.get("scheduler", "oef-coop"))
    options = payload.get("options", {})
    try:  # constructors only check and store their options
        registry.create(scheduler, **options)
    except (TypeError, ValueError, ReproError) as exc:
        raise ProtocolError(400, "bad-options", f"{where}: {exc}") from exc
    request = Request(
        instance=instance,
        scheduler=scheduler,
        options=options,
        priority=payload.get("priority", 0),
        deadline=deadline,
        use_cache=payload.get("use_cache", True),
        fingerprint=instance_fingerprint(instance),
    )
    key = derive_key(request, registry) if request.use_cache else None
    return replace(request, key=key)


def parse_batch(
    payload: Mapping[str, object], registry: SchedulerRegistry
) -> List[Request]:
    """Validate a ``/solve_batch`` body into an ordered request list."""
    _check(_BATCH, payload, "batch request")
    items = payload["requests"]
    if len(items) > MAX_BATCH_ITEMS:
        raise ProtocolError(
            413, "batch-too-large",
            f"{len(items)} items exceed the {MAX_BATCH_ITEMS}-item bound",
        )
    return [
        parse_solve(item, registry, where=f"requests[{index}]")
        for index, item in enumerate(items)
    ]


# -- audit / compare --------------------------------------------------------
def parse_audit(
    payload: Mapping[str, object], registry: SchedulerRegistry
) -> Tuple[Any, str, int, int]:
    """``(instance, scheduler, sp_trials, seed)`` for ``/audit``."""
    _check(_AUDIT, payload, "audit request")
    return (
        _parse_instance(payload),
        _resolve(registry, payload.get("scheduler", "oef-coop")),
        payload.get("sp_trials", 4),
        payload.get("seed", 0),
    )


def parse_compare(
    payload: Mapping[str, object], registry: SchedulerRegistry
) -> Tuple[Any, Optional[List[str]]]:
    """``(instance, scheduler names or None)`` for ``/compare``."""
    _check(_COMPARE, payload, "compare request")
    instance = _parse_instance(payload)
    names = payload.get("schedulers")
    if names is None:
        return instance, None
    return instance, [_resolve(registry, name) for name in names]


# -- responses --------------------------------------------------------------
def response_payload(response: Response) -> Dict[str, object]:
    """The wire shape of one successful solve.

    The deterministic core (``scheduler``, ``fingerprint``,
    ``allocation``) depends only on the request content; telemetry that
    legitimately varies between servings (disposition, timings, cache
    counters) sits apart under ``served``, which is what lets the
    differential test assert byte-identical *results* across transports.
    """
    return {
        "schema": WIRE_SCHEMA,
        "status": "ok",
        "scheduler": response.scheduler,
        "fingerprint": response.fingerprint,
        "allocation": allocation_to_dict(response.allocation),
        "served": served_block(response),
    }


def served_block(response: Response) -> Dict[str, object]:
    """The per-serving telemetry of :func:`response_payload`."""
    return {
        "disposition": response.disposition,
        "solve_seconds": response.solve_seconds,
        "cache_hits": response.cache_hits,
        "cache_misses": response.cache_misses,
    }


def split_served(payload: Mapping[str, object]) -> Optional[Tuple[bytes, bytes, bytes]]:
    """``json_bytes(payload)`` as ``(prefix, served, suffix)``, each encoded once.

    ``prefix`` is encoded from the keys sorting before ``served``,
    ``suffix`` from those after it: the canonical encoding lists sorted
    keys, so the three parts join to ``json_bytes(payload)`` and any other
    ``served`` block splices in between.  ``None`` when no key sorts
    before ``served``, or none after (not the wire shape).
    """
    head = {k: v for k, v in payload.items() if k < "served"}
    tail = {k: v for k, v in payload.items() if k > "served"}
    if not (head and tail):
        return None
    return (
        json_bytes(head)[:-1] + b',"served":',
        json_bytes(payload["served"]),
        b"," + json_bytes(tail)[1:],
    )


def overloaded_payload(response: Response) -> Dict[str, object]:
    """The typed 429 body for a shed request."""
    return error_payload(
        "overloaded",
        response.reason or "request shed by admission control",
        disposition=response.disposition,
        retry_after_s=getattr(response, "retry_after_s", 0.0),
        scheduler=response.scheduler,
    )


def retry_after_header(response: Response) -> str:
    """RFC 7231 ``Retry-After`` delta-seconds (integer, >= 1).

    The exact fractional hint rides in the JSON body as
    ``retry_after_s``; the header is the ceiling so generic HTTP clients
    back off at least as long as the admission stage asked.
    """
    hint = getattr(response, "retry_after_s", 0.0) or 0.0
    return str(max(1, math.ceil(hint)))


__all__ = [
    "MAX_BATCH_ITEMS",
    "ProtocolError",
    "WIRE_SCHEMA",
    "error_payload",
    "json_bytes",
    "overloaded_payload",
    "parse_audit",
    "parse_batch",
    "parse_compare",
    "parse_json",
    "parse_solve",
    "response_payload",
    "retry_after_header",
    "served_block",
    "split_served",
]
