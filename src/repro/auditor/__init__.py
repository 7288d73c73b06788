"""Continuous fairness auditing for the gateway serving layer.

The paper's Table-1 properties (Pareto efficiency, envy-freeness,
sharing incentive, strategyproofness) used to be checked only offline,
in ``experiments/table1_properties.py``.  This package turns them into
an operational guarantee of the serving layer:

* :class:`~repro.auditor.middleware.AuditMiddleware` — a pure-observer
  gateway stage; a seeded hash :class:`~repro.auditor.sampler.AuditSampler`
  picks responses off the hot path at near-zero cost;
* :class:`~repro.auditor.worker.AuditWorker` — an asynchronous daemon
  running the full :func:`repro.core.properties.audit_allocator` suite
  per sampled response, classifying verdicts against each scheduler's
  expected-property contract;
* :class:`~repro.auditor.ledger.AuditLedger` — schema-validated
  (``repro/audit-v1``) append-only JSONL, one stream per scenario;
* :mod:`repro.auditor.report` — seeded scenario replays and the
  per-scheduler/per-scenario summary behind ``repro audit-report``
  (non-zero exit on any confirmed violation).

See ``docs/auditing.md`` for sampler semantics, the ledger layout, the
report workflow, and how to register a custom check.
"""

from repro.auditor.ledger import AUDIT_DIR_ENV, AuditLedger
from repro.auditor.middleware import AuditMiddleware
from repro.auditor.report import (
    DEFAULT_REPLAY_SCENARIOS,
    DEFAULT_REPLAY_SCHEDULERS,
    UNFAIR_SCHEDULER,
    UnfairAllocator,
    confirmed_violations,
    injected_unfair_scheduler,
    replay_audit,
    replay_instances,
    summarize_records,
)
from repro.auditor.sampler import AuditSampler
from repro.auditor.schema import (
    AUDIT_SCHEMA,
    PROPERTY_KEYS,
    validate_audit_record,
)
from repro.auditor.worker import (
    EXPECTED_PROPERTIES,
    AuditWorker,
    classify_marks,
)

__all__ = [
    "AUDIT_DIR_ENV",
    "AUDIT_SCHEMA",
    "DEFAULT_REPLAY_SCENARIOS",
    "DEFAULT_REPLAY_SCHEDULERS",
    "EXPECTED_PROPERTIES",
    "PROPERTY_KEYS",
    "UNFAIR_SCHEDULER",
    "AuditLedger",
    "AuditMiddleware",
    "AuditSampler",
    "AuditWorker",
    "UnfairAllocator",
    "classify_marks",
    "confirmed_violations",
    "injected_unfair_scheduler",
    "replay_audit",
    "replay_instances",
    "summarize_records",
    "validate_audit_record",
]
