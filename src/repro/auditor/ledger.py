"""The append-only audit ledger: one JSONL file per audit stream.

Every audited response becomes one ``repro/audit-v1`` line under
``<root>/<scenario>.jsonl`` — the durable record ``repro audit-report``
summarizes.  The write discipline is the benchmark ledger's (the shared
:class:`repro.jsonlio.JsonlStore`): concurrent audit workers interleave
whole lines, never halves, and lines are schema-validated on both
write and read (:mod:`repro.auditor.schema`), so a corrupt line is
caught with its file and line number.

``$REPRO_AUDIT_DIR`` names the :meth:`AuditLedger.default` ledger
(semantics in :meth:`repro.jsonlio.JsonlStore.default`).  There is no
committed default location: audits are operational telemetry, not a
repo artifact, so callers outside ``$REPRO_AUDIT_DIR`` must name a
directory explicitly (``repro serve --audit-ledger DIR``).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro import jsonlio
from repro.auditor.schema import AUDIT_SCHEMA

#: Environment variable naming the default audit-ledger directory.
AUDIT_DIR_ENV = "REPRO_AUDIT_DIR"


class AuditLedger(jsonlio.JsonlStore):
    """Append and read ``repro/audit-v1`` records in one directory.

    The ledger's own part is routing: a record lands in the stream named
    by its ``scenario``.  :meth:`default` is the ``$REPRO_AUDIT_DIR``
    ledger or ``None`` (records then live only in the worker's buffer).
    """

    SCHEMA = AUDIT_SCHEMA
    DIR_ENV = AUDIT_DIR_ENV

    scenarios = jsonlio.JsonlStore.names
    records = jsonlio.JsonlStore.read
    all_records = jsonlio.JsonlStore.read_all

    def append(self, record: Mapping[str, object]) -> Dict[str, object]:
        """Validate and atomically append one record; returns it."""
        return self.append_entry(str(record.get("scenario")), record)


__all__ = ["AUDIT_DIR_ENV", "AuditLedger"]
