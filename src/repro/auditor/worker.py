"""The asynchronous audit worker: full property suite off the hot path.

:class:`AuditWorker` owns a bounded queue and one daemon thread.  The
gateway's :class:`~repro.auditor.middleware.AuditMiddleware` enqueues
``(instance, scheduler, fingerprint)`` triples as responses stream by;
the worker replays each through the *complete* Table-1 property suite
(:func:`repro.core.properties.audit_allocator`), classifies the
verdict against the scheduler's expected-property contract, and
appends one ``repro/audit-v1`` record to the audit ledger.

Failure isolation is the design center (the fault-injection tests pin
it down):

* a **full queue** drops the sample (counted), it never blocks a
  request;
* an audit check that **raises** — or references a torn-down gateway —
  becomes an ``error`` verdict in the ledger, never an exception
  anywhere else;
* a check that **hangs** past ``deadline_s`` is abandoned on a daemon
  thread and recorded as an ``error`` verdict;
* a broken **ledger write** is counted and the record is still kept in
  the in-memory buffer.

Verdict parity with the synchronous audit is a tested property: the
worker audits with exactly the kwargs :meth:`audit_parameters`
reports, so ``audit_allocator(registry.create(s), instance,
**worker.audit_parameters(s))`` reproduces any ledger row bit for bit.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.auditor.ledger import AuditLedger
from repro.auditor.schema import AUDIT_SCHEMA, PROPERTY_KEYS
from repro.core.instance import ProblemInstance
from repro.core.properties import PropertyReport, audit_allocator
from repro.registry import SchedulerRegistry

#: Most ``(fingerprint, scheduler)`` keys a dedup set holds (the worker's
#: submitted keys, the middleware's settled keys); a full set is cleared,
#: so a long run costs at most a re-audit per key, never unbounded memory.
SEEN_KEYS_BOUND = 4096

#: Expected-to-hold properties per scheduler — the paper's Table 1
#: contract.  A ``"no"`` mark on an expected property is a *confirmed
#: violation* (verdict ``fail``); a ``"no"`` on anything else is
#: informational (the scheduler never promised it).  Schedulers absent
#: from this map promise everything — the conservative default that
#: makes a deliberately unfair injected scheduler fail loudly.
EXPECTED_PROPERTIES: Dict[str, Tuple[str, ...]] = {
    "gavel": ("SI",),
    "gandiva-fair": ("PE", "SI"),
    "oef-coop": ("PE", "EF", "SI", "optimal efficiency"),
    "oef-noncoop": ("PE", "SP", "optimal efficiency"),
    # non-Table-1 baselines: only the properties they actually provide
    # in this setting (verified against the seeded replay streams)
    "max-min": ("EF", "SI"),
    "drf": ("SP",),
    "nash-welfare": ("PE", "SI"),
    "efficiency-max": ("PE", "optimal efficiency"),
}

_STOP = object()


def classify_marks(
    scheduler: str,
    marks: Dict[str, str],
    expected: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> Tuple[str, List[str]]:
    """``(verdict, violations)`` for one scheduler's property marks.

    ``marks`` maps property keys to ``"yes"``/``"no"``/``"n/a"``.
    Violations are the *expected* properties marked ``"no"``.
    """
    table = EXPECTED_PROPERTIES if expected is None else expected
    promised = table.get(scheduler, PROPERTY_KEYS)
    violations = [
        key for key in PROPERTY_KEYS
        if key in promised and marks.get(key) == "no"
    ]
    return ("fail" if violations else "pass"), violations


class AuditWorker:
    """One daemon thread draining sampled responses into audit records."""

    def __init__(
        self,
        ledger: Optional[AuditLedger] = None,
        *,
        registry: Optional[SchedulerRegistry] = None,
        scenario: str = "live",
        sp_trials: int = 2,
        seed: int = 0,
        max_queue: int = 256,
        deadline_s: Optional[float] = None,
        audit_fn: Optional[
            Callable[[ProblemInstance, str], PropertyReport]
        ] = None,
        max_records: int = 4096,
    ):
        if registry is None:
            from repro.registry import REGISTRY

            registry = REGISTRY
        self.ledger = ledger
        self.registry = registry
        self.scenario = str(scenario)
        self.sp_trials = int(sp_trials)
        self.seed = int(seed)
        self.deadline_s = deadline_s
        self.audit_fn = audit_fn
        self._queue: "queue.Queue" = queue.Queue(maxsize=int(max_queue))
        self._records: deque = deque(maxlen=int(max_records))
        self._checks: List[Tuple[str, Callable]] = []
        self._seen: set = set()
        self._lock = threading.Lock()
        self._closed = False
        self._counts = {
            "enqueued": 0,
            "audited": 0,
            "passed": 0,
            "failed": 0,
            "errors": 0,
            "dropped": 0,
            "duplicates": 0,
            "ledger_errors": 0,
        }
        self._thread = threading.Thread(
            target=self._run, name="audit-worker", daemon=True
        )
        self._thread.start()

    # -- audit parameters (the sync/async parity contract) ---------------

    def audit_parameters(self, scheduler: str) -> Dict[str, object]:
        """The exact ``audit_allocator`` kwargs this worker audits with.

        Pulled from the scheduler's registered audit defaults
        (``pe_within``, ``efficiency_constraint``, ``pe_tolerance``)
        plus this worker's ``sp_trials``/``seed`` — so a
        synchronous ``audit_allocator(registry.create(name), instance,
        **worker.audit_parameters(name))`` reproduces the worker's
        verdict exactly.
        """
        info = self.registry.info(scheduler)
        return {
            "efficiency_constraint": info.efficiency_constraint,
            "sp_trials": self.sp_trials,
            "seed": self.seed,
            "pe_within": info.pe_within,
            "pe_tolerance": info.pe_tolerance,
        }

    def add_check(self, name: str, fn: Callable) -> None:
        """Register a custom check ``fn(allocator, instance) -> bool``.

        A falsy return records ``name`` as a violation (verdict
        ``fail``); a raise becomes an ``error`` verdict.  Checks run on
        the worker thread under the same deadline as the built-in suite.
        """
        self._checks.append((str(name), fn))

    # -- hot-path entry points -------------------------------------------

    def submit(
        self,
        instance: ProblemInstance,
        scheduler: str,
        fingerprint: str,
    ) -> bool:
        """Non-blocking enqueue; ``False`` when dropped or duplicate."""
        key = (fingerprint, scheduler)
        with self._lock:
            if self._closed:
                self._counts["dropped"] += 1
                return False
            if key in self._seen:
                self._counts["duplicates"] += 1
                return False
            if len(self._seen) >= SEEN_KEYS_BOUND:
                self._seen.clear()
            self._seen.add(key)
        try:
            self._queue.put_nowait((instance, scheduler, fingerprint))
        except queue.Full:
            with self._lock:
                self._counts["dropped"] += 1
                self._seen.discard(key)
            return False
        with self._lock:
            self._counts["enqueued"] += 1
        return True

    # -- worker side ------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                self._audit_one(*item)
            finally:
                self._queue.task_done()

    def _with_deadline(self, fn: Callable[[], PropertyReport]):
        if self.deadline_s is None:
            return fn()
        outcome: Dict[str, object] = {}

        def target():
            try:
                outcome["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 - reported as verdict
                outcome["exc"] = exc

        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(self.deadline_s)
        if runner.is_alive():
            raise TimeoutError(
                f"audit exceeded its {self.deadline_s}s deadline"
            )
        if "exc" in outcome:
            raise outcome["exc"]  # type: ignore[misc]
        return outcome["value"]

    def _audit_checks(
        self, instance: ProblemInstance, scheduler: str
    ) -> Tuple[Dict[str, str], List[str]]:
        """Run the full suite + custom checks; ``(marks, violations)``."""
        if self.audit_fn is not None:
            report = self.audit_fn(instance, scheduler)
        else:
            report = audit_allocator(
                self.registry.create(scheduler),
                instance,
                **self.audit_parameters(scheduler),
            )
        row = report.as_row()
        marks = {key: str(row[key]) for key in PROPERTY_KEYS}
        _, violations = classify_marks(scheduler, marks)
        for name, fn in self._checks:
            if not fn(self.registry.create(scheduler), instance):
                violations.append(name)
        return marks, violations

    def _audit_one(
        self, instance: ProblemInstance, scheduler: str, fingerprint: str
    ) -> None:
        start = time.perf_counter()
        record: Dict[str, object] = {
            "schema": AUDIT_SCHEMA,
            "created_unix": time.time(),
            "scenario": self.scenario,
            "scheduler": scheduler,
            "fingerprint": fingerprint,
            "seed": self.seed,
        }
        try:
            canonical = self.registry.resolve(scheduler)
            record["scheduler"] = canonical
            marks, violations = self._with_deadline(
                lambda: self._audit_checks(instance, canonical)
            )
            record.update(
                verdict="fail" if violations else "pass",
                properties=marks,
                violations=violations,
            )
        except BaseException as exc:  # noqa: BLE001 - audits never propagate
            record.update(
                verdict="error",
                properties={key: "n/a" for key in PROPERTY_KEYS},
                violations=[],
                error=f"{type(exc).__name__}: {exc}",
            )
        record["elapsed_s"] = time.perf_counter() - start
        with self._lock:
            self._counts["audited"] += 1
            verdict = str(record["verdict"])
            self._counts[
                {"pass": "passed", "fail": "failed", "error": "errors"}[verdict]
            ] += 1
            self._records.append(record)
        if self.ledger is not None:
            try:
                self.ledger.append(record)
            except Exception:  # noqa: BLE001 - keep auditing on disk errors
                with self._lock:
                    self._counts["ledger_errors"] += 1

    # -- lifecycle / introspection ----------------------------------------

    def drain(self, timeout: Optional[float] = 10.0) -> bool:
        """Block until every enqueued audit finished; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._queue.unfinished_tasks:
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.005)
        return True

    def stop(self, timeout: Optional[float] = 10.0) -> bool:
        """Drain, then stop the worker thread.  Idempotent."""
        with self._lock:
            if self._closed:
                return not self._thread.is_alive()
            self._closed = True
        flushed = self.drain(timeout)
        self._queue.put(_STOP)
        self._thread.join(timeout)
        return flushed and not self._thread.is_alive()

    def records(self) -> List[Dict[str, object]]:
        """A copy of the in-memory record buffer, oldest first."""
        with self._lock:
            return [dict(record) for record in self._records]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counts = dict(self._counts)
        counts["pending"] = int(self._queue.unfinished_tasks)
        counts["scenario"] = self.scenario
        return counts

    def __repr__(self) -> str:
        return (
            f"AuditWorker(scenario={self.scenario!r}, "
            f"sp_trials={self.sp_trials}, seed={self.seed})"
        )


__all__ = [
    "EXPECTED_PROPERTIES",
    "AuditWorker",
    "classify_marks",
]
