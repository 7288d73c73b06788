"""The one JSONL layer under the repo's ledgers, stores and sinks.

Three subsystems keep durable state as schema-validated JSONL streams:
the audit ledger and the trace store (directories of streams:
:class:`JsonlStore`), and the fleet metrics sink
(:mod:`repro.fleet.metrics`, one file, the same primitives).

The write discipline is shared by all three: each entry is serialized
to one line and written with a single ``O_APPEND`` ``write(2)``
followed by ``fsync``, so concurrent appenders interleave whole lines,
never halves, and a crash leaves either the full new line or nothing.
:func:`append_jsonl_lines` extends the same guarantee to a batch —
POSIX ``O_APPEND`` writes are atomic per ``write(2)`` call, so a batch
lands as one contiguous block of whole lines and costs one fsync
instead of one per line (the fleet sink's per-window flush relies on
this to keep streaming cheap).

Reads validate every line against its schema tag's spec
(:mod:`repro.fieldspec`) and report failures as a
:class:`~repro.exceptions.SchemaError` whose ``path`` is
``{file}:{lineno}``, so a corrupt or hand-mangled line is caught where
it lives, not downstream in a compare or aggregate.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Optional

from repro import fieldspec
from repro.exceptions import SchemaError


def safe_filename(name: str, suffix: str = ".jsonl") -> str:
    """Map an arbitrary stream name onto a safe ``<name>.jsonl`` filename.

    Alphanumerics plus ``-``, ``_``, and ``.`` pass through; everything
    else becomes ``_``.  This is the naming rule every ledger directory
    in the repo uses, so stream names round-trip through
    ``os.listdir`` discovery.
    """
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name
    )
    return f"{safe}{suffix}"


def dump_line(entry: Mapping[str, object]) -> bytes:
    """One canonical JSONL line: sorted keys, numpy scalars as floats."""
    return (
        json.dumps(entry, sort_keys=True, default=float) + "\n"
    ).encode("utf-8")


def _append_bytes(path: str, data: bytes) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def append_jsonl_lines(
    path: str, entries: Iterable[Mapping[str, object]]
) -> int:
    """Atomically append a batch of entries: one write, one fsync.

    Returns the number of entries written.  An empty batch touches
    nothing (no file is created).
    """
    lines = [dump_line(entry) for entry in entries]
    if not lines:
        return 0
    _append_bytes(path, b"".join(lines))
    return len(lines)


def read_jsonl(
    path: str, schema: Optional[str] = None
) -> List[Dict[str, object]]:
    """All entries of one stream, in append order.

    ``schema`` is the registry tag (:func:`repro.fieldspec.register`)
    every line must validate against; ``None`` reads untyped lines.  A
    missing file reads as the empty stream.  Blank lines are skipped (a
    crash mid-write can leave a trailing newline).  A line that is not
    valid JSON (a torn last line included), or that its schema rejects,
    raises :class:`SchemaError` at ``{path}:{lineno}`` so the bad line
    can be found and excised by hand.
    """
    if not os.path.exists(path):
        return []
    entries: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(
                    f"{path}:{lineno}", f"not valid JSON ({exc})"
                ) from None
            if schema is not None:
                try:
                    fieldspec.validate(schema, entry)
                except SchemaError as exc:
                    raise SchemaError(f"{path}:{lineno}", str(exc)) from None
            entries.append(entry)
    return entries


def list_streams(root: str, suffix: str = ".jsonl") -> List[str]:
    """Stream names present in a ledger directory, sorted."""
    if not os.path.isdir(root):
        return []
    return sorted(
        name[: -len(suffix)]
        for name in os.listdir(root)
        if name.endswith(suffix)
    )


class JsonlStore:
    """A directory of ``<name>.jsonl`` streams holding one schema's records.

    A subclass names its ``SCHEMA`` tag — every line is validated
    against it before bytes land on append and per line on read — and,
    for :meth:`default` discovery, its ``DIR_ENV`` variable and (if it
    has a conventional location) ``DEFAULT_DIR``.
    """

    SCHEMA: str
    DIR_ENV: str
    DEFAULT_DIR: Optional[str] = None

    def __init__(self, root: str):
        self.root = str(root)

    @classmethod
    def default(cls):
        """The conventional store for this invocation, or ``None``.

        ``$DIR_ENV`` wins, and an *empty* value disables discovery
        entirely (tier-1 test isolation — see ``tests/conftest.py``).
        Otherwise ``DEFAULT_DIR`` relative to the current directory;
        failing both, callers must name a directory explicitly.
        """
        if cls.DIR_ENV in os.environ:
            value = os.environ[cls.DIR_ENV]
            return cls(value) if value else None
        if cls.DEFAULT_DIR:
            return cls(cls.DEFAULT_DIR)
        return None

    def path_for(self, name: str) -> str:
        return os.path.join(self.root, safe_filename(name))

    def names(self) -> List[str]:
        """Stream names present, from the ``*.jsonl`` files on disk."""
        return list_streams(self.root)

    def read(self, name: str) -> List[Dict[str, object]]:
        """All validated entries of one stream, in append order."""
        return read_jsonl(self.path_for(name), self.SCHEMA)

    def read_all(self) -> List[Dict[str, object]]:
        """Every stream's entries, streams in name order."""
        return [entry for name in self.names() for entry in self.read(name)]

    def append_entry(
        self, name: str, entry: Mapping[str, object]
    ) -> Dict[str, object]:
        """Validate, then atomically append one entry; returns it."""
        fieldspec.validate(self.SCHEMA, entry)
        entry = dict(entry)
        append_jsonl_lines(self.path_for(name), [entry])
        return entry


__all__ = [
    "JsonlStore",
    "append_jsonl_lines",
    "dump_line",
    "list_streams",
    "read_jsonl",
    "safe_filename",
]
