"""Persistent benchmark ledger: run ids, artifact store, compare, gates.

The durable home of the repo's performance trajectory.  Every
``repro/bench-v1`` record (see :mod:`repro.benchio`) can be appended to
a committed, append-only JSONL ledger (one file per bench family under
``benchmarks/ledger/``), wrapped with a deterministic run id and a
provenance manifest; historical runs are then aligned, diffed under
noise floors, and gated so "measurably faster" is an enforceable
contract rather than a one-off table.

The pieces:

* :mod:`~repro.benchledger.schema` — the record and ledger-entry specs,
  checked on write *and* read;
* :mod:`~repro.benchledger.manifest` — machine/python/config
  provenance and the comparability rule;
* :mod:`~repro.benchledger.run_id` — ``<sha12>-<manifest10>-<seq04>``
  deterministic run ids;
* :mod:`~repro.benchledger.ledger` — :class:`BenchLedger`, the atomic
  append-only store with run resolution (run id, git ref, ``latest``);
* :mod:`~repro.benchledger.compare` — cross-run deltas classified
  improved/flat/regressed;
* :mod:`~repro.benchledger.gates` — per-metric regression thresholds
  (wall-clock gates require provenance-comparable runs; dimensionless
  ratio gates fire across machines).

Entry points: ``repro bench --json`` appends, ``repro bench --compare
BASE`` reports and gates, and ``benchmarks/conftest.py`` routes every
benchmark module's records through the ledger.  See
``docs/benchmarks.md`` for the workflow.
"""

from repro.benchledger.compare import (
    CompareReport,
    FamilyComparison,
    MetricDelta,
    NoiseFloor,
    RowComparison,
    compare_runs,
    render_text,
)
from repro.benchledger.gates import (
    GateFailure,
    GatePolicy,
    GateResult,
    GateThreshold,
    apply_gates,
)
from repro.benchledger.ledger import (
    DEFAULT_LEDGER_DIR,
    LEDGER_DIR_ENV,
    BaselineNotFound,
    BenchLedger,
)
from repro.benchledger.manifest import Manifest, comparability
from repro.benchledger.run_id import (
    format_run_id,
    is_run_id,
    next_sequence,
    parse_run_id,
)
from repro.benchledger.schema import validate_entry, validate_record

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_DIR_ENV",
    "BaselineNotFound",
    "BenchLedger",
    "CompareReport",
    "FamilyComparison",
    "GateFailure",
    "GatePolicy",
    "GateResult",
    "GateThreshold",
    "Manifest",
    "MetricDelta",
    "NoiseFloor",
    "RowComparison",
    "apply_gates",
    "comparability",
    "compare_runs",
    "format_run_id",
    "is_run_id",
    "next_sequence",
    "parse_run_id",
    "render_text",
    "validate_entry",
    "validate_record",
]
