"""Exception hierarchy shared across the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subsystems define
narrower classes below so tests and callers can distinguish modeling
mistakes (bad input) from solver failures (infeasible/unbounded programs)
and from simulation misconfiguration.
"""

from __future__ import annotations


def unknown_name_message(kind: str, name: str, known, choices=None) -> str:
    """``"unknown <kind> '<name>'; choose from [...]"`` with a did-you-mean.

    Shared by every registry-shaped lookup (schedulers, scenarios) so the
    suggestion format stays uniform.  ``known`` feeds the close-match
    search; ``choices`` (default: sorted ``known``) is the list shown —
    the registry matches against aliases but displays canonical names.
    """
    import difflib

    known = sorted(known)
    message = f"unknown {kind} {name!r}; choose from {choices or known}"
    close = difflib.get_close_matches(name, known, n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return message


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ModelError(ReproError):
    """An optimisation model was built incorrectly (bad shapes, bad bounds)."""


class SolverError(ReproError):
    """HiGHS failed to produce a usable solution."""


class InfeasibleError(SolverError):
    """The linear program has no feasible point."""


class UnboundedError(SolverError):
    """The linear program is unbounded in the optimisation direction."""


class ValidationError(ReproError):
    """User-supplied data (speedup matrices, cluster specs) is invalid."""


class SchemaError(ValidationError):
    """A schema-tagged JSON record, or a line of a JSONL stream, is malformed.

    The one error every record family raises (:mod:`repro.fieldspec`).
    ``path`` is the JSON-pointer-ish offending field (``rows[2].p50``),
    or ``file:lineno`` when a stored line fails on read.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)

    def __reduce__(self):  # two-argument constructor: keep it picklable
        return (type(self), (self.path, self.message))


class RegistrationError(ReproError):
    """A scheduler was registered incorrectly (duplicate name or alias)."""


class UnknownSchedulerError(ValidationError, KeyError):
    """A scheduler name (or alias) is not present in the registry.

    Also a :class:`KeyError` so call sites that treat the registry as a
    mapping keep working.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class TraceFormatError(ValidationError):
    """An external trace file could not be parsed or normalized."""


class UnknownTraceError(ValidationError):
    """A ``trace:<name>`` scenario names no ingested trace."""


class SimulationError(ReproError):
    """The cluster simulation was configured or driven incorrectly."""


class PlacementError(SimulationError):
    """The placer could not realise an allocation on physical devices."""
