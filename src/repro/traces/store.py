"""The trace store: ingested cluster traces as ``repro/trace-v1`` JSONL.

One trace = one schema-validated JSONL file under the store root, one
line per job, written and read through the shared
:class:`repro.jsonlio.JsonlStore` (the same append-fsync discipline and
:mod:`repro.fieldspec` validation as the benchmark and audit ledgers).
The canonical record is deliberately tiny — the six facts replay
needs, nothing else::

    {"schema": "repro/trace-v1", "job_id": "j1", "tenant": "vc-a",
     "submit_s": 0.0, "duration_s": 1800.0, "num_workers": 1,
     "model": null}

``model`` is an optional zoo-model name; replay assigns a seeded model
from the catalog when a trace has none (external traces rarely name
reproducible model families).

``$REPRO_TRACE_DIR`` overrides where :meth:`TraceStore.default` looks,
otherwise ``traces/`` relative to the current directory (semantics in
:meth:`repro.jsonlio.JsonlStore.default`).
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping

from repro import jsonlio
from repro.exceptions import (
    TraceFormatError,
    UnknownTraceError,
    unknown_name_message,
)
from repro.fieldspec import integer, nullable, number, register, text

#: Schema tag carried by every stored trace record.
TRACE_SCHEMA = "repro/trace-v1"

#: Environment variable naming the default trace-store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Default store location inside a repo checkout (relative to cwd).
DEFAULT_TRACE_DIR = "traces"

#: Reject anything that is not a well-formed ``repro/trace-v1`` job.
validate_trace_record = register(
    TRACE_SCHEMA,
    {
        "job_id": text,
        "tenant": text,
        "submit_s": number(ge=0),
        "duration_s": number(gt=0),
        "num_workers": integer(ge=1),
        "model": nullable(text),
    },
)


class TraceStore(jsonlio.JsonlStore):
    """Save, list, and load ingested traces in one directory.

    What is the trace store's own is that a trace is written whole:
    :meth:`save` replaces any previous version instead of appending.
    """

    SCHEMA = TRACE_SCHEMA
    DIR_ENV = TRACE_DIR_ENV
    DEFAULT_DIR = DEFAULT_TRACE_DIR

    def load(self, name: str) -> List[Dict[str, object]]:
        """All validated job records of one trace, in stored order."""
        if name not in self.names():
            raise UnknownTraceError(
                unknown_name_message("trace", name, self.names())
                + f" (store: {self.root}; ingest with 'repro ingest-trace')"
            )
        return self.read(name)

    def save(
        self, name: str, records: List[Mapping[str, object]]
    ) -> str:
        """Write one trace (replacing any previous version); returns its path.

        Every record is validated before the first byte lands, so a save
        either stores the whole trace or nothing.
        """
        if not records:
            raise TraceFormatError(
                f"trace {name!r} has no job records after normalization"
            )
        for record in records:
            validate_trace_record(record)
        path = self.path_for(name)
        if os.path.exists(path):
            os.remove(path)
        jsonlio.append_jsonl_lines(path, records)
        return path


__all__ = [
    "DEFAULT_TRACE_DIR",
    "TRACE_DIR_ENV",
    "TRACE_SCHEMA",
    "TraceStore",
    "validate_trace_record",
]
