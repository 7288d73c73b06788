"""The ``repro/audit-v1`` record spec — one audited response each.

The audit ledger is append-only JSONL (see
:mod:`repro.auditor.ledger`), so a malformed line written today is a
broken ``repro audit-report`` next month.  So every record passes
through this :mod:`repro.fieldspec` table on *both* write and read, and
errors name the offending field (``properties.SP``).

One ``repro/audit-v1`` record::

    {"schema": "repro/audit-v1", "created_unix": 1722300000.0,
     "scenario": "steady", "scheduler": "oef-coop",
     "fingerprint": "9f3a5c0d7e1b", "seed": 0, "verdict": "fail",
     "properties": {"PE": "yes", "EF": "no", "SI": "yes",
                    "SP": "n/a", "optimal efficiency": "yes"},
     "violations": ["EF"], "elapsed_s": 0.012, "error": null}

``scenario`` is the audit stream label, ``scheduler`` the canonical
registry name, ``fingerprint`` the audited instance's content hash and
``seed`` the SP-audit seed.  ``verdict`` is ``pass``, ``fail`` or
``error``; ``violations`` names the failed *expected* properties (a
``fail`` needs at least one); ``error`` is required iff the verdict is
``error`` and must be absent or null otherwise.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.fieldspec import (
    SchemaError,
    check_at,
    choice,
    integer,
    list_of,
    nullable,
    number,
    record,
    register,
    text,
)

AUDIT_SCHEMA = "repro/audit-v1"

#: The Table-1 property marks every record carries, in report order
#: (matches :meth:`repro.core.properties.PropertyReport.as_row`).
PROPERTY_KEYS = ("PE", "EF", "SI", "SP", "optimal efficiency")

#: Allowed per-property marks; "n/a" covers checks that did not run
#: (e.g. SP audits disabled for a scheduler).
PROPERTY_MARKS = ("yes", "no", "n/a")

VERDICTS = ("pass", "fail", "error")


def _verdict_is_backed(record_: Mapping[str, Any]) -> None:
    verdict, error = record_["verdict"], record_.get("error")
    if verdict == "fail" and not record_["violations"]:
        raise SchemaError(
            "violations",
            "a 'fail' verdict must name at least one violated property",
        )
    if verdict == "error":
        check_at("error", text, error)
    elif error is not None:
        raise SchemaError(
            "error",
            f"only 'error' verdicts carry an error message, got {error!r}",
        )


#: Validate one ``repro/audit-v1`` record; returns it unchanged.
validate_audit_record = register(
    AUDIT_SCHEMA,
    {
        "created_unix": number(),
        "scenario": text,
        "scheduler": text,
        "fingerprint": text,
        "seed": integer(),
        "verdict": choice(*VERDICTS),
        "properties": record(
            {key: choice(*PROPERTY_MARKS) for key in PROPERTY_KEYS},
            closed=True,
        ),
        # built-in property keys or user-registered custom check names
        "violations": list_of(text),
        "elapsed_s": number(ge=0),
        "error": nullable(text),
    },
    _verdict_is_backed,
)


__all__ = [
    "AUDIT_SCHEMA",
    "PROPERTY_KEYS",
    "PROPERTY_MARKS",
    "VERDICTS",
    "validate_audit_record",
]
