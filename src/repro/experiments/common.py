"""Shared helpers for the paper-experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class ExperimentResult:
    """Printable output of one experiment: named rows plus free-form notes."""

    experiment: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)

    def format(self) -> str:
        """Plain-text rendering: a ``== title ==`` line, padded columns, notes."""
        lines = [f"== {self.experiment} =="]
        if self.rows:
            headers, cells = table_cells(self.rows)
            widths = [
                max(len(header), *(len(row[index]) for row in cells))
                for index, header in enumerate(headers)
            ]
            for row in [headers, *cells]:
                lines.append(
                    "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
                )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def table_cells(rows: Sequence[Dict[str, object]]) -> tuple:
    """``(headers, cells)`` for a table of rows with possibly differing keys.

    Headers are the union of every row's keys in first-seen order; a row
    missing a key gets an empty cell, and floats print with three decimals.
    """
    headers = list(dict.fromkeys(key for row in rows for key in row))
    cells = [[_fmt(row.get(header, "")) for header in headers] for row in rows]
    return headers, cells


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)

