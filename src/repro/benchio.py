"""Machine-readable benchmark records (``BENCH_*.json``).

The benchmark suite and ``repro bench`` used to report timings only in
pytest/stdout output, which made the performance trajectory between PRs
unrecoverable.  This module gives both a single tiny format: one JSON
document per benchmark with mean/p50/p95 seconds per row (a row is
usually one backend or one warm/cold mode), written with
:func:`write_bench_json` and stable enough to diff across commits or
plot from CI artifacts.

The shape (``repro/bench-v1``) is specified, with an example, in
:mod:`repro.benchledger.schema` — the one place it is written down.
``run`` is :func:`run_metadata`'s environment provenance, ``meta`` is
free-form context and extra row keys pass through.

The ``run`` block is what makes records *comparable across runs* — two
``BENCH_*.json`` files can be diffed knowing whether they came from the
same commit, machine, and interpreter (groundwork for the roadmap's
persistent bench-ledger item).
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from datetime import datetime, timezone
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.benchledger.schema import BENCH_SCHEMA as SCHEMA, validate_record

#: Environment variable overriding where ``BENCH_*.json`` files land.
OUTPUT_DIR_ENV = "REPRO_BENCH_DIR"

#: Records built in this process, in order — the benchmark suite's
#: conftest drains this to route every written ``BENCH_*.json`` through
#: the persistent ledger (see :mod:`repro.benchledger`).
_SESSION_RECORDS: List[Dict[str, object]] = []


def _git_sha() -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_metadata() -> Dict[str, object]:
    """Environment provenance stamped into every benchmark record.

    Git SHA, hostname, python version, platform string, and a UTC
    timestamp — enough to decide whether two ``BENCH_*.json`` files are
    comparable (same commit? same machine? same interpreter?).
    """
    return {
        "git_sha": _git_sha(),
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "created_iso": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def bench_stats(seconds: Sequence[float]) -> Dict[str, float]:
    """mean/p50/p95 (and the sample count) over repeated timings."""
    samples = np.asarray(list(seconds), dtype=float)
    if samples.size == 0:
        raise ValueError("bench_stats needs at least one sample")
    return {
        "mean": float(samples.mean()),
        "p50": float(np.percentile(samples, 50)),
        "p95": float(np.percentile(samples, 95)),
        "samples": int(samples.size),
    }


def bench_output_path(filename: str, directory: Optional[str] = None) -> str:
    """Where a ``BENCH_*.json`` file belongs.

    Explicit ``directory`` wins, then ``$REPRO_BENCH_DIR``, then the
    current working directory — so local runs drop records next to the
    invocation and CI redirects everything to one artifact folder.
    """
    base = directory or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, filename)


def build_bench_record(
    benchmark: str,
    rows: List[Dict[str, object]],
    meta: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble and schema-validate one ``repro/bench-v1`` document.

    Raises :class:`repro.benchledger.schema.BenchSchemaError` on a
    malformed record (row without a name, non-numeric statistic, …) —
    malformed records used to be silently accepted and only exploded
    downstream, inside a compare or a plot.
    """
    payload: Dict[str, object] = {
        "schema": SCHEMA,
        "benchmark": benchmark,
        "created_unix": time.time(),
        "run": run_metadata(),
        "meta": dict(meta or {}),
        "rows": rows,
    }
    return validate_record(payload)


def write_bench_json(
    path: str,
    benchmark: str,
    rows: List[Dict[str, object]],
    meta: Optional[Mapping[str, object]] = None,
) -> str:
    """Validate and write one benchmark record; returns the path.

    Every written record is also retained in-process (see
    :func:`session_records`) so the benchmark suite's conftest can
    append the session's records to the persistent ledger in one run.
    """
    return write_record_json(path, build_bench_record(benchmark, rows, meta=meta))


def write_record_json(path: str, record: Dict[str, object]) -> str:
    """Write an already-built record (re-validated) to ``path``."""
    validate_record(record)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=False)
        handle.write("\n")
    _SESSION_RECORDS.append(record)
    return path


def session_records() -> List[Dict[str, object]]:
    """Records written by this process so far (oldest first)."""
    return list(_SESSION_RECORDS)


def reset_session_records() -> None:
    _SESSION_RECORDS.clear()


__all__ = [
    "OUTPUT_DIR_ENV",
    "SCHEMA",
    "bench_output_path",
    "bench_stats",
    "build_bench_record",
    "reset_session_records",
    "run_metadata",
    "session_records",
    "write_bench_json",
    "write_record_json",
]
