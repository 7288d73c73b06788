"""Concurrent experiment runner with per-experiment timing and a summary.

``repro experiments`` drives it: any subset of the fig1–fig10/table1
experiments runs through an execution backend (:mod:`repro.parallel`),
each experiment's stdout is captured and replayed in the deterministic
input order, and a pass/fail summary table with wall-clock timings
closes the run — the orchestration shape of an audit runner: fan out
independent checks, aggregate one verdict.

Experiments are addressed by id (``"fig1"``, ``"table1"``, ...), which
is all that crosses a process boundary; each worker re-imports the
experiment module and runs its ``main()``.  Exit status is non-zero when
any experiment fails, making ``repro experiments --jobs N`` a usable CI
gate.
"""

from __future__ import annotations

import io
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, TextIO

from repro.exceptions import ValidationError
from repro.parallel import BackendSpec, get_backend


class _StdoutRouter(io.TextIOBase):
    """Routes writes to a per-thread buffer when one is active.

    ``contextlib.redirect_stdout`` swaps the single process-global
    ``sys.stdout``, so two thread-backend workers would capture each
    other's prints (and an overlapping exit order can leave a worker's
    buffer installed as ``sys.stdout`` forever).  This proxy is installed
    once while captures are active; each thread registers its own buffer
    and unrouted threads write straight through to the real stream.
    """

    def __init__(self, target):
        super().__init__()
        self.target = target
        self.active = 0
        self._local = threading.local()

    def _sink(self):
        return getattr(self._local, "buffer", None) or self.target

    def write(self, text):  # noqa: D102 - io.TextIOBase API
        return self._sink().write(text)

    def flush(self):  # noqa: D102
        self._sink().flush()

    @property
    def encoding(self):  # some libraries probe sys.stdout.encoding
        return getattr(self.target, "encoding", "utf-8")

    def bind(self, buffer) -> None:
        self._local.buffer = buffer

    def unbind(self) -> None:
        self._local.buffer = None


_ROUTER_LOCK = threading.Lock()


@contextmanager
def _capture_stdout():
    """Capture this thread's stdout into a fresh StringIO, thread-safely.

    Installs the router on first use, refcounts concurrent captures, and
    restores the original stream only when the last capture exits (and
    only if nobody else has since replaced ``sys.stdout``).
    """
    buffer = io.StringIO()
    with _ROUTER_LOCK:
        router = sys.stdout if isinstance(sys.stdout, _StdoutRouter) else None
        if router is None:
            router = _StdoutRouter(sys.stdout)
            sys.stdout = router
        router.active += 1
    router.bind(buffer)
    try:
        yield buffer
    finally:
        router.unbind()
        with _ROUTER_LOCK:
            router.active -= 1
            if router.active == 0 and sys.stdout is router:
                sys.stdout = router.target


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's verdict: captured output, timing, and any error."""

    name: str
    ok: bool
    seconds: float
    output: str
    error: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"


def experiment_ids() -> List[str]:
    """Known experiment ids, in canonical (paper) order."""
    from repro.experiments import ALL_EXPERIMENTS

    return [name for name, _ in ALL_EXPERIMENTS]


def run_experiment(name: str) -> ExperimentOutcome:
    """Run one experiment by id, capturing stdout and timing it.

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
        with _capture_stdout() as buffer:
            modules[name].main()
        ok, error = True, ""
    except Exception:
        ok, error = False, traceback.format_exc()
    return ExperimentOutcome(
        name=name,
        ok=ok,
        seconds=time.perf_counter() - start,
        output=buffer.getvalue(),
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

    Streams each experiment's captured output in the given order as soon
    as it — and everything ahead of it — has finished (later experiments
    keep running in the pool meanwhile), then prints a timing/verdict
    summary.  Returns the outcomes; the caller decides the exit code
    (see :func:`suite_ok`).
    """
    stream = stream if stream is not None else sys.stdout
    known = experiment_ids()
    names = list(ids) if ids else known
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValidationError(
            f"unknown experiment ids {unknown}; choose from {known}"
        )

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
    "run_experiment",
    "run_suite",
    "suite_ok",
]
