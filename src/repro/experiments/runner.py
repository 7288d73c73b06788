"""Concurrent experiment runner with per-experiment timing and a summary.

``repro experiments`` drives it: any subset of the fig1–fig10/table1
experiments runs through an execution backend (:mod:`repro.parallel`),
each experiment's tables are rendered as text in the deterministic
input order, and a pass/fail summary table with wall-clock timings
closes the run — the orchestration shape of an audit runner: fan out
independent checks, aggregate one verdict.

An experiment module's one contract is ``run()``, returning an
:class:`~repro.experiments.common.ExperimentResult` or a list of them.
Experiments are addressed by id (``"fig1"``, ``"table1"``, ...), which
is all that crosses a process boundary; each worker re-imports the
experiment module and runs its ``run()``.  The markdown report
(:mod:`repro.experiments.report`) renders the same outcomes.  Exit
status is non-zero when any experiment fails, making ``repro experiments
--jobs N`` a usable CI gate.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional, Sequence, TextIO, Tuple

from repro.exceptions import ValidationError
from repro.experiments.common import ExperimentResult
from repro.parallel import BackendSpec, get_backend


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's verdict: its result tables, timing, and any error."""

    name: str
    ok: bool
    seconds: float
    results: Tuple[ExperimentResult, ...] = ()
    error: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    @property
    def output(self) -> str:
        """The text rendering: each result's table, blank-line separated."""
        if not self.results:
            return ""
        return "\n\n".join(result.format() for result in self.results) + "\n"


def experiment_ids() -> List[str]:
    """Known experiment ids, in canonical (paper) order."""
    from repro.experiments import ALL_EXPERIMENTS

    return [name for name, _ in ALL_EXPERIMENTS]


def resolve_ids(ids: Optional[Sequence[str]] = None) -> List[str]:
    """``ids`` checked against the known experiments (default: all of them)."""
    known = experiment_ids()
    names = list(ids) if ids else known
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValidationError(
            f"unknown experiment ids {unknown}; choose from {known}"
        )
    return names


def run_experiment(name: str) -> ExperimentOutcome:
    """Run one experiment by id, keeping its results and timing it.

    Module-level and string-addressed so it fans out to process pools;
    an experiment that raises is reported as a failure, never as a crash
    of the whole run.
    """
    from repro.experiments import ALL_EXPERIMENTS

    modules = dict(ALL_EXPERIMENTS)
    if name not in modules:
        raise ValidationError(
            f"unknown experiment {name!r}; choose from {experiment_ids()}"
        )
    start = time.perf_counter()
    try:
        returned = modules[name].run()
        if isinstance(returned, ExperimentResult):
            returned = [returned]
        results, ok, error = tuple(returned), True, ""
    except Exception:
        results, ok, error = (), False, traceback.format_exc()
    return ExperimentOutcome(
        name=name,
        ok=ok,
        seconds=time.perf_counter() - start,
        results=results,
        error=error,
    )


def run_suite(
    ids: Optional[Sequence[str]] = None,
    *,
    backend: BackendSpec = "auto",
    jobs: Optional[int] = None,
    stream: Optional[TextIO] = None,
) -> List[ExperimentOutcome]:
    """Run a subset of experiments (default: all) through a backend.

    Streams each experiment's text output in the given order as soon
    as it — and everything ahead of it — has finished (later experiments
    keep running in the pool meanwhile), then prints a timing/verdict
    summary.  Returns the outcomes; the caller decides the exit code
    (see :func:`suite_ok`).
    """
    stream = stream if stream is not None else sys.stdout
    names = resolve_ids(ids)
    resolved = get_backend(backend, jobs, task_count=len(names))
    suite_start = time.perf_counter()
    outcomes: List[ExperimentOutcome] = []
    for outcome in resolved.imap(run_experiment, names):
        print(f"\n########## {outcome.name} ##########", file=stream)
        if outcome.output:
            stream.write(outcome.output)
        if not outcome.ok:
            print(outcome.error, file=stream)
        outcomes.append(outcome)
    suite_seconds = time.perf_counter() - suite_start

    print(format_summary(outcomes, suite_seconds, resolved.name), file=stream)
    return outcomes


def format_summary(
    outcomes: Sequence[ExperimentOutcome],
    suite_seconds: float,
    backend_name: str,
) -> str:
    """The closing pass/fail table for one suite run."""
    width = max((len(outcome.name) for outcome in outcomes), default=4)
    lines = [
        "",
        f"== experiment summary ({backend_name} backend) ==",
    ]
    for outcome in outcomes:
        lines.append(
            f"  {outcome.name.ljust(width)}  {outcome.status}  "
            f"{outcome.seconds:7.2f}s"
        )
    failed = [outcome.name for outcome in outcomes if not outcome.ok]
    serial_seconds = sum(outcome.seconds for outcome in outcomes)
    lines.append(
        f"  {len(outcomes) - len(failed)}/{len(outcomes)} passed in "
        f"{suite_seconds:.2f}s wall ({serial_seconds:.2f}s of experiment time)"
    )
    if failed:
        lines.append(f"  FAILED: {', '.join(failed)}")
    return "\n".join(lines)


def suite_ok(outcomes: Sequence[ExperimentOutcome]) -> bool:
    """True when every experiment in the run passed."""
    return all(outcome.ok for outcome in outcomes)


__all__ = [
    "ExperimentOutcome",
    "experiment_ids",
    "format_summary",
    "resolve_ids",
    "run_experiment",
    "run_suite",
    "suite_ok",
]
