"""The ``repro/bench-v1`` record and ``repro/ledger-v1`` entry specs.

Benchmark records used to be written with ``json.dump`` and read back
with hope: a row missing its ``p50``, a stringly-typed ``mean``, or a
typo'd schema tag was silently accepted and only exploded much later,
inside a compare or a plot.  The two :mod:`repro.fieldspec` tables
here are the single chokepoint both :mod:`repro.benchio` (on write) and
:mod:`repro.benchledger.ledger` (on write *and* read) route through, so
a malformed record can never enter the trajectory; errors name the
offending field (``rows[3].p95``).

The two document shapes:

``repro/bench-v1`` (one benchmark record, see :mod:`repro.benchio`;
``meta`` is optional and extra row keys pass through)::

    {"schema": "repro/bench-v1", "benchmark": "gateway",
     "created_unix": 1722300000.0,
     "run": {"git_sha": "3a0f9c1d2e4b", "hostname": "ci-runner-4",
             "python": "3.11.7", "platform": "Linux-x86_64",
             "created_iso": "2024-07-30T00:40:00+00:00"},
     "meta": {"instances": 64},
     "rows": [{"name": "pipeline/hot", "mean": 0.0012, "p50": 0.0011,
               "p95": 0.0019, "samples": 3, "speedup_vs_bare": 44.0}]}

``repro/ledger-v1`` (one ledger line, see
:mod:`repro.benchledger.ledger`; ``record`` is a whole valid
``repro/bench-v1`` document whose ``benchmark`` equals ``family``)::

    {"schema": "repro/ledger-v1",
     "run_id": "3a0f9c1d2e4b-b1c2d3e4f5-0007", "family": "gateway",
     "manifest": {"git_sha": "3a0f9c1d2e4b", "hostname": "ci-runner-4",
                  "python": "3.11.7", "platform": "Linux-x86_64",
                  "config": {"source": "repro bench"}},
     "manifest_hash": "b1c2d3e4f5a6",
     "record": {"schema": "repro/bench-v1", "benchmark": "gateway",
      "created_unix": 1722300000.0,
      "run": {"git_sha": "3a0f9c1d2e4b", "hostname": "ci-runner-4",
              "python": "3.11.7", "platform": "Linux-x86_64",
              "created_iso": "2024-07-30T00:40:00+00:00"},
      "rows": [{"name": "hot", "mean": 0.0012, "p50": 0.0011, "p95": 0.0019}]}}
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.fieldspec import (
    SchemaError,
    check_at,
    integer,
    list_of,
    nullable,
    number,
    record,
    register,
    text,
)

BENCH_SCHEMA = "repro/bench-v1"
LEDGER_SCHEMA = "repro/ledger-v1"

#: Required string fields of a record's ``run`` provenance block
#: (matches :func:`repro.benchio.run_metadata`).
RUN_FIELDS = ("git_sha", "hostname", "python", "platform", "created_iso")

#: Required statistics on every row: finite non-negative numbers
#: (``samples``, when present, is a non-negative int).  Extra row keys
#: pass through unvalidated (they are benchmark-specific: speedups, hit
#: counts, …).
ROW_STATS = ("mean", "p50", "p95")

#: Manifest fields (see :mod:`repro.benchledger.manifest`).
MANIFEST_FIELDS = ("git_sha", "hostname", "python", "platform")

#: A ledger entry's provenance block; also what ``Manifest.from_record``
#: demands of a record's ``run`` block before lifting it into a manifest.
MANIFEST_SPEC = record({field: text for field in MANIFEST_FIELDS})

_ROW = record(
    {
        "name": text,
        **{stat: number(ge=0) for stat in ROW_STATS},
        "samples": nullable(integer(ge=0)),
    }
)


def validate_row(row: Any, path: str = "rows[?]") -> None:
    """One benchmark row: ``name`` + mean/p50/p95 (+ integer samples)."""
    check_at(path, _ROW, row)


def _unique_row_names(payload: Mapping[str, Any]) -> None:
    names = set()
    for index, row in enumerate(payload["rows"]):
        if row["name"] in names:
            raise SchemaError(
                f"rows[{index}].name",
                f"duplicate row name {row['name']!r} (rows align by name in "
                "historical compares)",
            )
        names.add(row["name"])


#: Validate one ``repro/bench-v1`` document; returns it unchanged.
validate_record = register(
    BENCH_SCHEMA,
    {
        "benchmark": text,
        "created_unix": number(),
        "run": record({field: text for field in RUN_FIELDS}),
        "meta": record({}),
        "rows": list_of(_ROW, non_empty=True),
    },
    _unique_row_names,
    optional=("meta",),
)


def _family_is_the_records_benchmark(entry: Mapping[str, Any]) -> None:
    if entry["record"]["benchmark"] != entry["family"]:
        raise SchemaError(
            "family",
            f"family {entry['family']!r} does not match the record's "
            f"benchmark {entry['record']['benchmark']!r}",
        )


#: Validate one ``repro/ledger-v1`` line; returns it unchanged.
validate_entry = register(
    LEDGER_SCHEMA,
    {
        "run_id": text,
        "family": text,
        "manifest": MANIFEST_SPEC,
        "manifest_hash": text,
        "record": validate_record,
    },
    _family_is_the_records_benchmark,
)


__all__ = [
    "BENCH_SCHEMA",
    "LEDGER_SCHEMA",
    "MANIFEST_FIELDS",
    "MANIFEST_SPEC",
    "ROW_STATS",
    "RUN_FIELDS",
    "validate_entry",
    "validate_record",
    "validate_row",
]
