"""``AuditMiddleware``: the continuous-auditing tap on the gateway.

The stage is a pure observer.  It calls ``next`` first, then — for
successful allocations only — asks the seeded
:class:`~repro.auditor.sampler.AuditSampler` whether this
``(fingerprint, scheduler)`` is in the audited subset and, if so,
hands the instance to the :class:`~repro.auditor.worker.AuditWorker`
without blocking.  The response object is returned untouched (the
differential tests assert byte-identical payloads with the stage at
every legal anchor), and the *entire* capture path is wrapped so a
crashing sampler, worker, or teardown race can never fail a user
request — the worst case is a lost sample, counted in ``stats()``.

Position in :func:`repro.gateway.default_pipeline`: right below
metrics and above coalesce/cache, so the auditor sees every admitted
response — cache hits included (an allocation served from cache is
still an allocation users live under, and the settled-key memo makes
re-observing it a single set lookup).  ``Gateway.solve_batch`` items
dispatch through the same chain, so batch responses are sampled like
any other.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.auditor.ledger import AuditLedger
from repro.auditor.sampler import AuditSampler
from repro.auditor.worker import SEEN_KEYS_BOUND, AuditWorker
from repro.gateway.envelope import Request, Response, instance_fingerprint
from repro.gateway.middleware import Handler, Middleware


class AuditMiddleware(Middleware):
    """Sample successful responses into the asynchronous audit worker."""

    name = "audit"

    def __init__(
        self,
        rate: float = 1.0,
        *,
        seed: int = 0,
        sampler: Optional[AuditSampler] = None,
        worker: Optional[AuditWorker] = None,
        ledger: Optional[AuditLedger] = None,
        scenario: str = "live",
        registry=None,
    ):
        self.sampler = (
            sampler if sampler is not None else AuditSampler(rate, seed=seed)
        )
        if worker is None:
            worker = AuditWorker(
                ledger if ledger is not None else AuditLedger.default(),
                registry=registry,
                scenario=scenario,
                seed=seed,
            )
        self.worker = worker
        self._lock = threading.Lock()
        self._captured = 0
        self._capture_errors = 0
        #: keys whose capture outcome is settled (sampler rejection is
        #: deterministic, an enqueued audit is owned by the worker) — the
        #: steady-state hot path reduces to this one set lookup instead
        #: of two lock round-trips per solve
        self._observed: set = set()

    def handle(self, request: Request, next: Handler) -> Response:
        response = next(request)
        # The settled-key check lives inline so the steady-state tap is
        # one set lookup with no helper frame on the hot path.
        try:
            if response.ok and response.allocation is not None:
                fingerprint = (
                    response.fingerprint
                    or request.fingerprint
                    or instance_fingerprint(request.instance)
                )
                if (fingerprint, request.scheduler) not in self._observed:
                    self._capture(fingerprint, request.scheduler, request.instance)
        except Exception:  # noqa: BLE001 - observing must never fail a request
            with self._lock:
                self._capture_errors += 1
        return response

    def _capture(self, fingerprint: str, scheduler: str, instance) -> None:
        key = (fingerprint, scheduler)
        if len(self._observed) >= SEEN_KEYS_BOUND:
            self._observed.clear()
        if not self.sampler.admit(fingerprint, scheduler):
            self._observed.add(key)
            return
        if self.worker.submit(instance, scheduler, fingerprint):
            with self._lock:
                self._captured += 1
            self._observed.add(key)
        # a False submit is left unmemoized on purpose: a queue-full drop
        # must stay resubmittable once the backlog clears

    def stats(self) -> Dict[str, object]:
        """Sampler + worker counters, one flat mapping."""
        with self._lock:
            row: Dict[str, object] = {
                "captured": self._captured,
                "capture_errors": self._capture_errors,
            }
        row.update(self.sampler.stats())
        row.update(self.worker.stats())
        return row

    def describe(self) -> Dict[str, object]:
        row = super().describe()
        row.update(
            stateful="yes",
            rate=self.sampler.rate,
            scenario=self.worker.scenario,
        )
        return row

    def reset(self) -> None:
        self.sampler.reset()
        self._observed.clear()
        with self._lock:
            self._captured = 0
            self._capture_errors = 0


__all__ = ["AuditMiddleware"]
