"""The gateway envelope: typed ``Request``/``Response`` for every solve.

The paper frames scheduling as a *middleware service*; this module
defines the service's wire format.  A :class:`Request` names what to
solve (instance, scheduler, constructor options) and how the pipeline
may treat it (cache reuse, priority and deadline for admission control).
A :class:`Response` carries the allocation plus full provenance: which
scheduler produced it, the instance fingerprint it answers, how it was
served (the *disposition*: cold solve, cache hit, shed), the solver
wall time, cache-counter snapshots, and per-stage latency once the
gateway has timed the pipeline.  Both are frozen dataclasses, so middleware stages
derive modified copies with :func:`dataclasses.replace` instead of
mutating shared state — the envelope is safe to hand across threads.

Content fingerprints
--------------------
:func:`instance_fingerprint` is the cache identity the pipeline keys on:
it covers user names, GPU types, the speedup matrix, and capacities —
identical data ⇒ identical fingerprint.

:func:`options_key` freezes scheduler constructor options into a
hashable, order-insensitive, content-based key; values whose equality is
identity-based raise ``TypeError`` rather than risking a wrong cached
allocation.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import ProblemInstance
from repro.exceptions import ReproError

#: JSON keeps ``1`` from ``"1"`` and ``["a,b"]`` from ``["a", "b"]``; joining does not.
_encode_names = json.JSONEncoder(default=str).encode


def instance_fingerprint(instance: ProblemInstance) -> str:
    """Content hash of an instance: identical data ⇒ identical fingerprint.

    Covers user names, GPU-type names, the speedup matrix, and the
    capacity vector, so two independently constructed but equal instances
    share cache entries — and two that differ in any name do not.
    """
    speedups = instance.speedups
    digest = hashlib.sha256()
    digest.update(_encode_names([speedups.users, speedups.gpu_types]).encode())
    digest.update(np.ascontiguousarray(speedups.values, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(instance.capacities, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _freeze(value: object) -> object:
    """A hashable, content-based stand-in for one option value.

    repr() would truncate numpy arrays and embed reusable memory
    addresses for plain objects — colliding or unstable cache keys that
    could silently return the wrong cached allocation.  Only values whose
    content defines equality are accepted.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, np.ndarray):
        return (value.shape, str(value.dtype), value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, Mapping):
        return tuple(
            sorted((str(key), _freeze(item)) for key, item in value.items())
        )
    raise TypeError(
        f"scheduler option of type {type(value).__name__!r} cannot be cached "
        "by content; pass primitives/arrays, or solve with use_cache=False"
    )


def options_key(options: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
    """Hashable, order-insensitive cache key for constructor options."""
    return tuple(sorted((str(key), _freeze(value)) for key, value in options.items()))


def deadline_in(seconds: float) -> float:
    """An absolute :class:`Request` deadline ``seconds`` from now.

    Deadlines are monotonic-clock timestamps
    (:func:`time.monotonic`), so they survive wall-clock adjustments;
    ``AdmissionMiddleware`` sheds a request whose deadline has passed
    before any solving starts.
    """
    return time.monotonic() + float(seconds)


@dataclass(frozen=True)
class Request:
    """One unit of work entering the gateway pipeline.

    ``instance`` is the :class:`~repro.core.instance.ProblemInstance`
    to allocate.  ``scheduler`` names a registry scheduler (alias or
    canonical; :meth:`Gateway.solve` canonicalises it).

    Pipeline directives:

    * ``priority`` — admission control never capacity-sheds requests
      with ``priority > 0`` (deadline shedding still applies);
    * ``deadline`` — absolute monotonic timestamp (see
      :func:`deadline_in`); a request past its deadline is shed with a
      typed :class:`Overloaded` response instead of being solved;
    * ``use_cache`` — when ``False`` the cache stage neither looks up
      nor stores (it still counts the solve as a miss);
    * ``key`` — the cache identity ``(fingerprint, scheduler,
      options)``, filled in normalisation (:meth:`Gateway.solve`, ``parse_solve``);
      ``None`` (default) lets the stages derive it themselves;
    * ``fingerprint`` — the instance's content fingerprint, filled by
      :meth:`Gateway.solve` during normalisation so downstream stages
      never re-hash the instance; user code leaves it ``None``.
    """

    instance: ProblemInstance
    scheduler: str = "oef-coop"
    #: Constructor options forwarded to the scheduler factory.
    options: Mapping[str, object] = field(default_factory=dict)
    priority: int = 0
    deadline: Optional[float] = None
    use_cache: bool = True
    key: Optional[object] = None
    fingerprint: Optional[str] = None


#: How a response was served; the *disposition* of a solve.
DISPOSITIONS = (
    "cold",             # the terminal stage ran the scheduler from scratch
    "cache-hit",        # answered from the exact-content cache
    "shed-deadline",    # admission refused: deadline already passed
    "shed-capacity",    # admission refused: too many requests in flight
)


@dataclass(frozen=True)
class Response:
    """An allocation plus provenance, telemetry, and pipeline timings."""

    scheduler: str
    allocation: Optional[Allocation] = None
    fingerprint: str = ""
    #: ``"ok"`` or ``"overloaded"`` (see :class:`Overloaded`).
    status: str = "ok"
    #: One of :data:`DISPOSITIONS`.
    disposition: str = "cold"
    #: Scheduler wall time for this call (0.0 when served from cache).
    solve_seconds: float = 0.0
    #: Cache-counter snapshots at the time this response was produced
    #: (0 when no cache stage is in the pipeline).
    cache_hits: int = 0
    cache_misses: int = 0
    #: ``((stage_name, inclusive_seconds), ...)`` outermost first —
    #: each entry is the time spent at or below that stage.  Filled by
    #: the gateway after the chain returns.
    stage_timings: Tuple[Tuple[str, float], ...] = ()
    #: Opaque identity (compare with ``is``) of the cache entry behind a
    #: ``cache-hit``, else ``None``: the same stored entry, the same object.
    cache_entry: Optional[object] = None
    #: Human-readable explanation for non-``ok`` responses.
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def from_cache(self) -> bool:
        return self.disposition == "cache-hit"

    @property
    def shed(self) -> bool:
        return self.disposition.startswith("shed-")


@dataclass(frozen=True)
class Overloaded(Response):
    """Typed refusal from admission control: nothing was solved.

    ``status`` is always ``"overloaded"`` and ``allocation`` is ``None``;
    ``disposition`` says why (``"shed-deadline"`` or
    ``"shed-capacity"``) and ``reason`` carries the human-readable
    detail.  Callers that cannot handle shedding should not configure
    deadlines or an in-flight bound — the default pipeline never
    sheds.
    """

    status: str = "overloaded"
    disposition: str = "shed-capacity"
    #: Machine-readable backoff hint in seconds, derived by the admission
    #: stage from its queue depth and the recent downstream latency — the
    #: serving layer maps it onto an HTTP ``Retry-After`` header, and
    #: programmatic callers should sleep at least this long before
    #: retrying instead of guessing.
    retry_after_s: float = 0.0


class RequestShed(ReproError, RuntimeError):
    """Raised where an :class:`Overloaded` response cannot be returned.

    The :meth:`Gateway.allocator` view must hand back an allocation, so
    a shed solve (hence a shed ``audit``/``compare``) raises this with
    the refusal on ``.response``; the server maps it to a 429.
    """

    def __init__(self, response: Overloaded):
        super().__init__(f"gateway shed the request: {response.reason}")
        self.response = response


__all__ = [
    "DISPOSITIONS",
    "Overloaded",
    "Request",
    "RequestShed",
    "Response",
    "deadline_in",
    "instance_fingerprint",
    "options_key",
]
