"""The append-only benchmark ledger: one JSONL file per bench family.

``BENCH_*.json`` records used to be ephemeral CI artifacts — written,
uploaded, forgotten.  The ledger is the committed, durable home for the
same ``repro/bench-v1`` documents: every run appends one line per
family under ``benchmarks/ledger/<family>.jsonl``, wrapped in a
``repro/ledger-v1`` envelope carrying the run id
(:mod:`repro.benchledger.run_id`), the provenance manifest
(:mod:`repro.benchledger.manifest`), and the record itself.  Lines are
schema-validated on *both* write and read
(:mod:`repro.benchledger.schema`), so a corrupt or hand-mangled line is
caught with its file and line number, not downstream in a compare.

Appends are atomic whole lines (the :mod:`repro.jsonlio` write
discipline, via the shared :class:`~repro.jsonlio.JsonlStore`).

Layout::

    benchmarks/ledger/
      gateway.jsonl       # one line per run that recorded this family
      warm_start.jsonl
      parallel.jsonl
      ...

``$REPRO_LEDGER_DIR`` overrides where :meth:`BenchLedger.default`
looks (the analogue of ``$REPRO_BENCH_DIR`` for the one-shot records;
semantics in :meth:`repro.jsonlio.JsonlStore.default`).
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional, Tuple

from repro import jsonlio
from repro.benchledger.manifest import Manifest
from repro.benchledger.run_id import (
    format_run_id,
    is_run_id,
    next_sequence,
)
from repro.benchledger.schema import LEDGER_SCHEMA, validate_record

#: Environment variable overriding the default ledger directory.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: Default ledger location inside a repo checkout (relative to cwd).
DEFAULT_LEDGER_DIR = os.path.join("benchmarks", "ledger")


class BaselineNotFound(LookupError):
    """A ``--compare`` base spec that resolves to no run in the ledger."""


class BenchLedger(jsonlio.JsonlStore):
    """Append, read, and resolve runs in one ledger directory.

    One stream per bench family; the ledger's own part is run-id minting
    (:meth:`begin_run`, :meth:`append`) and :meth:`resolve_base`.
    """

    SCHEMA = LEDGER_SCHEMA
    DIR_ENV = LEDGER_DIR_ENV
    DEFAULT_DIR = DEFAULT_LEDGER_DIR

    families = jsonlio.JsonlStore.names
    entries = jsonlio.JsonlStore.read

    def runs(self) -> Dict[str, List[Dict[str, object]]]:
        """``run_id -> entries``, ordered oldest run first.

        Run order is by the earliest ``created_unix`` among a run's
        records (ties broken by run id), not file order — families live
        in separate files, so no single file knows the global order.
        """
        grouped: Dict[str, List[Dict[str, object]]] = {}
        for entry in self.read_all():
            grouped.setdefault(str(entry["run_id"]), []).append(entry)

        def run_key(item: Tuple[str, List[Dict[str, object]]]):
            run_id, entries = item
            stamps = [
                entry["record"]["created_unix"]  # type: ignore[index]
                for entry in entries
            ]
            return (min(stamps), run_id)

        return dict(sorted(grouped.items(), key=run_key))

    def entries_for_run(self, run_id: str) -> List[Dict[str, object]]:
        return [
            entry for entry in self.read_all()
            if entry["run_id"] == run_id
        ]

    def existing_run_ids(self) -> List[str]:
        seen: Dict[str, None] = {}
        for entry in self.read_all():
            seen.setdefault(str(entry["run_id"]))
        return list(seen)

    # -- writing ---------------------------------------------------------

    def begin_run(self, manifest: Manifest) -> str:
        """Mint the next run id for this manifest.

        Use one ``begin_run`` per logical run, then pass the id to every
        :meth:`append` in the batch so multi-family runs (``parallel`` +
        ``gateway`` from one ``repro bench``) group under a single id.
        """
        sequence = next_sequence(
            self.existing_run_ids(), manifest.git_sha, manifest.hash()
        )
        return format_run_id(manifest.git_sha, manifest.hash(), sequence)

    def append(
        self,
        record: Mapping[str, object],
        run_id: Optional[str] = None,
        config: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """Validate and atomically append one record; returns the entry.

        ``config`` lands in the manifest (and thus the run id) when the
        entry mints its own id; with an explicit ``run_id`` the manifest
        still records it for provenance.
        """
        validate_record(record)
        manifest = Manifest.from_record(record, config=config)
        if run_id is None:
            run_id = self.begin_run(manifest)
        family = str(record["benchmark"])
        return self.append_entry(
            family,
            {
                "schema": LEDGER_SCHEMA,
                "run_id": run_id,
                "family": family,
                "manifest": manifest.to_mapping(),
                "manifest_hash": manifest.hash(),
                "record": dict(record),
            },
        )

    # -- resolving -------------------------------------------------------

    def latest_run_id(
        self,
        family: Optional[str] = None,
        exclude: Optional[str] = None,
    ) -> Optional[str]:
        """Newest run id, optionally among runs recording ``family``."""
        candidates = [
            run_id
            for run_id, entries in self.runs().items()
            if run_id != exclude
            and (
                family is None
                or any(entry["family"] == family for entry in entries)
            )
        ]
        return candidates[-1] if candidates else None

    def resolve_base(
        self, spec: str, exclude: Optional[str] = None
    ) -> str:
        """Turn a ``--compare`` base spec into a concrete run id.

        ``spec`` is ``"latest"`` (newest run, minus ``exclude`` — the
        run being compared, so a fresh append never compares against
        itself), an explicit run id, or a git ref (full/abbreviated SHA
        or symbolic name resolved via ``git rev-parse``) selecting the
        newest run recorded at that commit.
        """
        if spec == "latest":
            run_id = self.latest_run_id(exclude=exclude)
            if run_id is None:
                raise BaselineNotFound(
                    "the ledger has no prior runs to compare against"
                )
            return run_id

        runs = self.runs()
        if is_run_id(spec):
            if spec in runs and spec != exclude:
                return spec
            raise BaselineNotFound(f"run id {spec!r} is not in the ledger")

        sha = self._resolve_git_ref(spec)
        matching = [
            run_id
            for run_id, entries in runs.items()
            if run_id != exclude
            and any(
                str(entry["manifest"]["git_sha"]).startswith(sha)  # type: ignore[index]
                for entry in entries
            )
        ]
        if not matching:
            raise BaselineNotFound(
                f"no ledger run recorded at commit {spec!r}"
                + (f" ({sha[:12]})" if sha != spec else "")
            )
        return matching[-1]

    def _resolve_git_ref(self, spec: str) -> str:
        """A hex prefix passes through; symbolic refs go via git."""
        if len(spec) >= 7 and all(ch in "0123456789abcdef" for ch in spec):
            return spec
        import subprocess

        cwd = self.root if os.path.isdir(self.root) else "."
        try:
            out = subprocess.run(
                ["git", "rev-parse", spec],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=cwd,
            )
        except (OSError, subprocess.TimeoutExpired):
            raise BaselineNotFound(
                f"{spec!r} is neither a run id nor a resolvable git ref"
            ) from None
        sha = out.stdout.strip()
        if out.returncode != 0 or not sha:
            raise BaselineNotFound(
                f"{spec!r} is neither a run id nor a resolvable git ref"
            )
        return sha


__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_DIR_ENV",
    "BaselineNotFound",
    "BenchLedger",
]
