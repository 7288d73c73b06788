"""Generate a markdown reproduction report for all experiments.

``python -m repro.experiments.report [output.md] [ids...]`` runs every
experiment (or the given ids) at the default scaled-down parameters
through :func:`~repro.experiments.runner.run_experiment` — the same
outcomes ``repro experiments`` prints as text — and writes one markdown
document with every regenerated table; the paper-vs-measured bands are
the claims table, ``tests/claims/test_paper_claims.py``.  An experiment that raises gets a
``FAILED`` section with its traceback, the rest still run, and the exit
status is 1.
"""

from __future__ import annotations

import sys
from typing import List, Optional, TextIO

from repro.exceptions import ValidationError
from repro.experiments.common import ExperimentResult, table_cells
from repro.experiments.runner import resolve_ids, run_experiment


def _as_markdown(result: ExperimentResult) -> str:
    lines = [f"### {result.experiment}", ""]
    if result.rows:
        headers, cells = table_cells(result.rows)
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "---|" * len(headers))
        for row in cells:
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    for note in result.notes:
        lines.append(f"> {note}")
        lines.append("")
    return "\n".join(lines)


def generate_report(
    stream: TextIO,
    only: Optional[List[str]] = None,
) -> int:
    """Write the report for ``only`` (default: every experiment).

    Returns the number of experiments that passed; unknown ids raise a
    :class:`~repro.exceptions.ValidationError` before anything is written.
    """
    names = resolve_ids(only)
    stream.write("# OEF reproduction report (auto-generated)\n\n")
    stream.write(
        "Regenerated by `python -m repro.experiments.report`; the paper's "
        "numbers and their bands are `tests/claims/test_paper_claims.py`.\n\n"
    )
    passed = 0
    for name in names:
        outcome = run_experiment(name)
        for result in outcome.results:
            stream.write(_as_markdown(result))
            stream.write("\n")
        if not outcome.ok:
            stream.write(f"### {name} FAILED\n\n```\n{outcome.error}```\n\n")
        stream.write(f"_{name} regenerated in {outcome.seconds:.1f}s_\n\n")
        passed += outcome.ok
    return passed


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    output = argv[0] if argv else None
    try:
        ids = resolve_ids(argv[1:])
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            passed = generate_report(handle, ids)
        print(f"wrote {len(ids)} experiments to {output}")
    else:
        passed = generate_report(sys.stdout, ids)
    return 0 if passed == len(ids) else 1


if __name__ == "__main__":
    raise SystemExit(main())
