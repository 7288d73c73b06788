"""Normalize external cluster-trace files into ``repro/trace-v1`` records.

Real traces (Philly, Helios, internal CSV dumps) agree on substance —
who submitted which job when, for how long, on how many GPUs — but not
on spelling.  The normalizer maps the common field spellings onto the
canonical record, shifts submit times so the earliest job lands at
t=0, and drops non-positive-duration rows (failed/cancelled jobs in
most public traces).  Anything structurally unusable raises
:class:`~repro.exceptions.TraceFormatError` with the offending row.

Two file formats are understood: CSV (header row required) and JSONL
(one object per line).  ``load_rows`` sniffs by extension; pass
``fmt`` to override.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import TraceFormatError
from repro.traces.store import TRACE_SCHEMA

#: Accepted spellings for each canonical field, tried in order.
FIELD_ALIASES: Dict[str, Tuple[str, ...]] = {
    "job_id": ("job_id", "jobid", "job", "id", "name"),
    "tenant": ("tenant", "user", "vc", "project", "queue"),
    "submit_s": (
        "submit_s",
        "submit_time",
        "submit",
        "submitted_time",
        "timestamp",
    ),
    "duration_s": (
        "duration_s",
        "duration",
        "run_time",
        "runtime",
        "duration_seconds",
    ),
    "num_workers": ("num_workers", "workers", "num_gpus", "gpus", "gpu_num"),
    "model": ("model", "model_name", "workload"),
}


def _pick(row: Mapping[str, object], field: str) -> object:
    for alias in FIELD_ALIASES[field]:
        if alias in row and row[alias] not in (None, ""):
            return row[alias]
    return None


def _as_float(value: object, where: str, field: str) -> float:
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        number = math.nan  # reported below, like any non-finite value
    if not math.isfinite(number):
        raise TraceFormatError(
            f"{where}: field {field!r} is not a finite number ({value!r})"
        )
    return number


def normalize_rows(
    rows: Iterable[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """Raw mapping rows → validated, t=0-anchored ``repro/trace-v1`` records.

    Rows missing a job id get a positional one (``job<n>``); rows
    missing a tenant or submit/duration fields are a hard error — a
    trace without attribution or timing cannot be replayed fairly.
    Rows whose duration is ``<= 0`` are dropped (failed/cancelled jobs).
    """
    records: List[Dict[str, object]] = []
    for index, row in enumerate(rows, start=1):
        where = f"row {index}"
        tenant = _pick(row, "tenant")
        if tenant is None:
            raise TraceFormatError(
                f"{where}: no tenant field (looked for "
                f"{list(FIELD_ALIASES['tenant'])})"
            )
        submit = _pick(row, "submit_s")
        if submit is None:
            raise TraceFormatError(
                f"{where}: no submit-time field (looked for "
                f"{list(FIELD_ALIASES['submit_s'])})"
            )
        duration = _pick(row, "duration_s")
        if duration is None:
            raise TraceFormatError(
                f"{where}: no duration field (looked for "
                f"{list(FIELD_ALIASES['duration_s'])})"
            )
        duration_s = _as_float(duration, where, "duration_s")
        if duration_s <= 0.0:
            continue
        job_id = _pick(row, "job_id")
        workers = _pick(row, "num_workers")
        model = _pick(row, "model")
        records.append(
            {
                "schema": TRACE_SCHEMA,
                "job_id": str(job_id) if job_id is not None else f"job{index}",
                "tenant": str(tenant),
                "submit_s": _as_float(submit, where, "submit_s"),
                "duration_s": duration_s,
                "num_workers": (
                    max(1, int(_as_float(workers, where, "num_workers")))
                    if workers is not None
                    else 1
                ),
                "model": str(model) if model is not None else None,
            }
        )
    if records:
        origin = min(record["submit_s"] for record in records)
        for record in records:
            record["submit_s"] = float(record["submit_s"]) - origin
    return records


def load_rows(
    path: str, fmt: Optional[str] = None
) -> List[Dict[str, object]]:
    """Read raw rows from a CSV or JSONL trace file (sniffed by extension)."""
    if fmt is None:
        ext = os.path.splitext(path)[1].lower()
        fmt = {
            ".csv": "csv",
            ".jsonl": "jsonl",
            ".ndjson": "jsonl",
            ".json": "jsonl",
        }.get(ext)
        if fmt is None:
            raise TraceFormatError(
                f"cannot infer trace format from {path!r}; "
                "pass --format csv|jsonl"
            )
    if fmt not in ("csv", "jsonl"):
        raise TraceFormatError(f"unknown trace format {fmt!r} (csv|jsonl)")
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            if fmt == "csv":
                return [dict(row) for row in csv.DictReader(handle)]
            return _jsonl_rows(path, handle)
    except OSError as exc:
        raise TraceFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text ({exc})") from None


def _jsonl_rows(path: str, handle) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for lineno, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}:{lineno}: not valid JSON ({exc})") from None
        if not isinstance(row, Mapping):
            raise TraceFormatError(f"{path}:{lineno}: expected a JSON object")
        rows.append(dict(row))
    return rows


def ingest_file(
    path: str, fmt: Optional[str] = None
) -> List[Dict[str, object]]:
    """One-call path → validated ``repro/trace-v1`` records."""
    return normalize_rows(load_rows(path, fmt))


__all__ = [
    "FIELD_ALIASES",
    "ingest_file",
    "load_rows",
    "normalize_rows",
]
