"""Historical comparison of ledger runs: deltas, noise floors, classes.

Aligns two runs family-by-family and row-by-row (rows align by
``name`` — the schema forbids duplicate names for exactly this reason),
computes the delta on every shared numeric metric, and classifies each
as ``improved`` / ``flat`` / ``regressed`` under a configurable noise
floor.  Partially-overlapping runs are first-class: families or rows
present on only one side are *reported*, never errors — a PR that adds
or retires a benchmark must not break its own compare.

Direction matters: for wall-clock statistics (``mean``/``p50``/``p95``)
and ``overhead_*`` ratios, lower is better; for ``speedup_*`` /
``*_rps`` / hit-count metrics, higher is better.  ``regression_pct`` is
normalized so *positive always means worse*, which is what
:mod:`repro.benchledger.gates` thresholds against.

Provenance is checked per family pair via
:func:`repro.benchledger.manifest.comparability`: runs from different
hosts/interpreters are still *compared* (the deltas print), but the
family is flagged non-comparable so wall-clock gates know to stand
down — dimensionless ratios remain fair game across machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.benchledger.manifest import Manifest, comparability
from repro.fieldspec import is_number

#: Wall-clock statistics (seconds): meaningful only on comparable
#: provenance, and subject to the absolute noise floor.
TIME_METRICS = ("mean", "p50", "p95")

#: Row keys that are never compared as metrics.
NON_METRIC_KEYS = frozenset({"name", "samples"})

IMPROVED = "improved"
FLAT = "flat"
REGRESSED = "regressed"


@dataclass(frozen=True)
class NoiseFloor:
    """Deltas below these floors classify as ``flat``.

    ``rel_pct`` absorbs run-to-run jitter proportionally; ``abs_s``
    absorbs it absolutely for wall-clock metrics (a 40% swing on a
    0.3 ms timing is scheduler noise, not a regression).
    """

    rel_pct: float = 5.0
    abs_s: float = 0.002


def metric_direction(name: str) -> str:
    """``"lower"`` or ``"higher"`` — which way is better for a metric."""
    if name.startswith("speedup") or name.endswith(
        ("_rps", "_hits", "throughput")
    ):
        return "higher"
    return "lower"


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared between a base and a current row."""

    metric: str
    base: float
    current: float
    #: Signed relative change, ``(current - base) / base`` in percent.
    change_pct: float
    #: Positive means *worse*, regardless of the metric's direction.
    regression_pct: float
    classification: str  # improved | flat | regressed


@dataclass(frozen=True)
class RowComparison:
    """One aligned row; ``classification`` is the worst metric's."""

    name: str
    metrics: Tuple[MetricDelta, ...]
    classification: str

    def metric(self, name: str) -> Optional[MetricDelta]:
        for delta in self.metrics:
            if delta.metric == name:
                return delta
        return None


@dataclass(frozen=True)
class FamilyComparison:
    """One bench family aligned between two runs."""

    family: str
    base_run_id: str
    current_run_id: str
    comparable: bool
    provenance_mismatches: Tuple[str, ...]
    rows: Tuple[RowComparison, ...]
    only_in_base: Tuple[str, ...]
    only_in_current: Tuple[str, ...]


@dataclass
class CompareReport:
    """The full cross-run comparison, renderable as text or JSON."""

    base_run_id: str
    current_run_id: str
    comparisons: List[FamilyComparison] = field(default_factory=list)
    families_only_in_base: List[str] = field(default_factory=list)
    families_only_in_current: List[str] = field(default_factory=list)

    def classification_counts(self) -> Dict[str, int]:
        counts = {IMPROVED: 0, FLAT: 0, REGRESSED: 0}
        for comparison in self.comparisons:
            for row in comparison.rows:
                counts[row.classification] += 1
        return counts

    def to_json(self) -> Dict[str, object]:
        return {
            "base_run_id": self.base_run_id,
            "current_run_id": self.current_run_id,
            "summary": self.classification_counts(),
            "families_only_in_base": list(self.families_only_in_base),
            "families_only_in_current": list(self.families_only_in_current),
            "families": [
                {
                    "family": comparison.family,
                    "comparable": comparison.comparable,
                    "provenance_mismatches": list(
                        comparison.provenance_mismatches
                    ),
                    "only_in_base": list(comparison.only_in_base),
                    "only_in_current": list(comparison.only_in_current),
                    "rows": [
                        {
                            "name": row.name,
                            "classification": row.classification,
                            "metrics": [
                                {
                                    "metric": delta.metric,
                                    "base": delta.base,
                                    "current": delta.current,
                                    "change_pct": delta.change_pct,
                                    "regression_pct": delta.regression_pct,
                                    "classification": delta.classification,
                                }
                                for delta in row.metrics
                            ],
                        }
                        for row in comparison.rows
                    ],
                }
                for comparison in self.comparisons
            ],
        }


def classify_delta(
    metric: str, base: float, current: float, noise: NoiseFloor
) -> MetricDelta:
    """Delta + class for one metric pair under the noise floor."""
    if base == 0:
        change_pct = 0.0 if current == 0 else float("inf")
    else:
        change_pct = (current - base) / abs(base) * 100.0
    direction = metric_direction(metric)
    regression_pct = change_pct if direction == "lower" else -change_pct

    within_rel = abs(change_pct) <= noise.rel_pct
    within_abs = metric in TIME_METRICS and abs(current - base) <= noise.abs_s
    if within_rel or within_abs:
        classification = FLAT
    elif regression_pct > 0:
        classification = REGRESSED
    else:
        classification = IMPROVED
    return MetricDelta(
        metric=metric,
        base=float(base),
        current=float(current),
        change_pct=change_pct,
        regression_pct=regression_pct,
        classification=classification,
    )


def compare_rows(
    base_row: Mapping[str, object],
    current_row: Mapping[str, object],
    noise: NoiseFloor,
) -> RowComparison:
    """Align one row pair on every shared numeric metric."""
    deltas = []
    for metric, base_value in base_row.items():
        if metric in NON_METRIC_KEYS or not is_number(base_value):
            continue
        current_value = current_row.get(metric)
        if not is_number(current_value):
            continue
        deltas.append(
            classify_delta(metric, base_value, current_value, noise)  # type: ignore[arg-type]
        )
    classes = {delta.classification for delta in deltas}
    if REGRESSED in classes:
        classification = REGRESSED
    elif IMPROVED in classes:
        classification = IMPROVED
    else:
        classification = FLAT
    return RowComparison(
        name=str(base_row["name"]),
        metrics=tuple(deltas),
        classification=classification,
    )


def compare_family(
    base_entry: Mapping[str, object],
    current_entry: Mapping[str, object],
    noise: NoiseFloor,
) -> FamilyComparison:
    """Compare one family's ledger entries from two runs."""
    base_manifest = Manifest.from_mapping(base_entry["manifest"])  # type: ignore[arg-type]
    current_manifest = Manifest.from_mapping(current_entry["manifest"])  # type: ignore[arg-type]
    comparable, mismatches = comparability(base_manifest, current_manifest)

    base_rows = {
        str(row["name"]): row
        for row in base_entry["record"]["rows"]  # type: ignore[index]
    }
    current_rows = {
        str(row["name"]): row
        for row in current_entry["record"]["rows"]  # type: ignore[index]
    }
    shared = [name for name in base_rows if name in current_rows]
    return FamilyComparison(
        family=str(base_entry["family"]),
        base_run_id=str(base_entry["run_id"]),
        current_run_id=str(current_entry["run_id"]),
        comparable=comparable,
        provenance_mismatches=tuple(mismatches),
        rows=tuple(
            compare_rows(base_rows[name], current_rows[name], noise)
            for name in shared
        ),
        only_in_base=tuple(n for n in base_rows if n not in current_rows),
        only_in_current=tuple(
            n for n in current_rows if n not in base_rows
        ),
    )


def compare_runs(
    base_entries: Sequence[Mapping[str, object]],
    current_entries: Sequence[Mapping[str, object]],
    noise: Optional[NoiseFloor] = None,
) -> CompareReport:
    """Compare two runs' entry sets (as returned by the ledger).

    Families present on only one side land in
    ``families_only_in_base`` / ``families_only_in_current`` — reported,
    not gated.  Should a run somehow carry several entries for one
    family, the newest is compared.
    """
    noise = noise or NoiseFloor()
    base_by_family = {str(e["family"]): e for e in base_entries}
    current_by_family = {str(e["family"]): e for e in current_entries}

    report = CompareReport(
        base_run_id=(
            str(base_entries[0]["run_id"]) if base_entries else "<none>"
        ),
        current_run_id=(
            str(current_entries[0]["run_id"])
            if current_entries
            else "<none>"
        ),
        families_only_in_base=sorted(
            f for f in base_by_family if f not in current_by_family
        ),
        families_only_in_current=sorted(
            f for f in current_by_family if f not in base_by_family
        ),
    )
    for family in sorted(base_by_family):
        if family in current_by_family:
            report.comparisons.append(
                compare_family(
                    base_by_family[family], current_by_family[family], noise
                )
            )
    return report


def render_text(report: CompareReport) -> str:
    """The human-facing regression report (``repro bench --compare``)."""
    lines = [
        f"comparing current run {report.current_run_id}"
        f" against base {report.base_run_id}"
    ]
    for comparison in report.comparisons:
        tag = (
            "comparable"
            if comparison.comparable
            else "NON-COMPARABLE: " + "; ".join(
                comparison.provenance_mismatches
            )
        )
        lines.append(f"\n[{comparison.family}] ({tag})")
        header = f"  {'row':<18} {'metric':<22} {'base':>12} " \
                 f"{'current':>12} {'change':>9}  class"
        lines.append(header)
        for row in comparison.rows:
            for delta in row.metrics:
                change = (
                    f"{delta.change_pct:+.1f}%"
                    if delta.change_pct != float("inf")
                    else "+inf"
                )
                lines.append(
                    f"  {row.name:<18} {delta.metric:<22}"
                    f" {delta.base:>12.6g} {delta.current:>12.6g}"
                    f" {change:>9}  {delta.classification}"
                )
        for name in comparison.only_in_base:
            lines.append(f"  {name:<18} (only in base run)")
        for name in comparison.only_in_current:
            lines.append(f"  {name:<18} (only in current run)")
    for family in report.families_only_in_base:
        lines.append(f"\n[{family}] only in base run — skipped")
    for family in report.families_only_in_current:
        lines.append(f"\n[{family}] only in current run — skipped")
    counts = report.classification_counts()
    lines.append(
        f"\nrows: {counts[IMPROVED]} improved, {counts[FLAT]} flat, "
        f"{counts[REGRESSED]} regressed"
    )
    return "\n".join(lines)


__all__ = [
    "FLAT",
    "IMPROVED",
    "NON_METRIC_KEYS",
    "REGRESSED",
    "TIME_METRICS",
    "CompareReport",
    "FamilyComparison",
    "MetricDelta",
    "NoiseFloor",
    "RowComparison",
    "classify_delta",
    "compare_family",
    "compare_rows",
    "compare_runs",
    "metric_direction",
    "render_text",
]
