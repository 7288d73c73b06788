"""Decorator-based scheduler registry: self-describing allocators.

Every allocator class registers itself with a :class:`SchedulerInfo`
record — canonical name, aliases, family, per-scheduler audit defaults
(``pe_within``, ``efficiency_constraint``) and capability flags — so
entry points (CLI, :class:`~repro.gateway.Gateway`, cluster
simulator, experiments) look schedulers up instead of hand-constructing
them.  Adding a new scheduler is one decorator::

    from repro.core.base import Allocator
    from repro.registry import register_scheduler

    @register_scheduler(aliases=("my-alias",), family="baseline")
    class MyScheduler(Allocator):
        name = "my-scheduler"
        ...

and every consumer — ``repro list-schedulers``, ``repro compare``, the
gateway, the simulator — picks it up without modification.
Lookup is by canonical name or any alias::

    from repro.registry import create_scheduler, scheduler_info

    allocator = create_scheduler("cooperative")      # alias of "oef-coop"
    info = scheduler_info("gavel")
    info.efficiency_constraint                       # "envy_free"

The default registry lazily imports the built-in allocator modules on
first lookup, so ``import repro.registry`` stays cheap and free of
import cycles.

Capability flags and concurrency
--------------------------------
``SchedulerInfo.parallel_safe`` says whether instances may solve
concurrently from several *threads* of one process — which is how
:meth:`repro.gateway.Gateway.solve_batch` and the ``repro serve``
shard executors run them.  Set it to ``False`` for allocators with
shared mutable module/class state: the registry then owns one lock for
that scheduler (:meth:`SchedulerRegistry.solve_lock`) and the gateway's
terminal solver stage holds it around every solve, so the scheduler
runs one solve at a time across every gateway built over this registry.

Registration itself is an import-time, single-threaded affair (module
import holds the interpreter's import lock).  The lazy first load runs
under the registry's own lock, so a first lookup from any thread waits
for the whole builtin set; lookups afterwards are read-only and safe
from any thread.  ``create()`` constructs a fresh allocator per call,
so callers never share allocator instances unless they choose to.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import (
    RegistrationError,
    UnknownSchedulerError,
    unknown_name_message,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.base import Allocator

#: Modules whose import registers every built-in allocator.
_BUILTIN_MODULES = (
    "repro.core.noncooperative",
    "repro.core.cooperative",
    "repro.baselines",
)


@dataclass(frozen=True)
class SchedulerInfo:
    """Everything an entry point needs to know about one scheduler.

    ``pe_within``, ``efficiency_constraint`` and ``pe_tolerance`` are the
    audit defaults the paper's Table-1 checks use for this scheduler (see
    :func:`repro.core.properties.audit_allocator`); callers may still
    override them per call.
    """

    name: str
    factory: Callable[..., "Allocator"]
    family: str = "baseline"
    aliases: Tuple[str, ...] = ()
    description: str = ""
    #: Pareto-improvement domain for the PE audit (None = unconstrained).
    pe_within: Optional[str] = None
    #: Constraint set the optimal-efficiency audit compares against.
    efficiency_constraint: str = "envy_free"
    #: Understands tenant weights / multiple job types (via WeightedOEF).
    supports_weights: bool = False
    #: Has a job-level (elastic) variant (via JobLevelOEF).
    supports_job_level: bool = False
    #: Safe to solve concurrently from multiple threads of one process.
    #: When False, ``SolverMiddleware`` serialises this scheduler's
    #: solves behind :meth:`SchedulerRegistry.solve_lock`.
    parallel_safe: bool = True
    #: Relative residual the PE audit tolerates (greedy heuristics are
    #: PE only up to small residuals on random instances).
    pe_tolerance: float = 1e-5

    def as_row(self) -> Dict[str, object]:
        """One printable table row for ``repro list-schedulers``."""
        return {
            "name": self.name,
            "family": self.family,
            "aliases": ", ".join(self.aliases) or "-",
            "pe domain": self.pe_within or "-",
            "efficiency vs": self.efficiency_constraint,
            "weights": "yes" if self.supports_weights else "no",
            "job-level": "yes" if self.supports_job_level else "no",
            "description": self.description,
        }


class SchedulerRegistry:
    """Name -> :class:`SchedulerInfo` mapping with alias resolution."""

    def __init__(self, load_builtins: bool = False):
        self._infos: Dict[str, SchedulerInfo] = {}
        self._aliases: Dict[str, str] = {}
        #: canonical name -> lock, for ``parallel_safe=False`` schedulers only
        self._solve_locks: Dict[str, threading.RLock] = {}
        self._load_builtins = load_builtins
        self._loaded = False
        self._loading = False
        self._load_lock = threading.RLock()
        #: bumped by every (un)registration; keys the warm process pool
        self.generation = 0

    # -- registration ------------------------------------------------------
    def register(self, info: SchedulerInfo) -> None:
        if info.name in self._infos:
            raise RegistrationError(f"scheduler {info.name!r} is already registered")
        for alias in (info.name, *info.aliases):
            owner = self._aliases.get(alias)
            if owner is not None and owner != info.name:
                raise RegistrationError(
                    f"alias {alias!r} of scheduler {info.name!r} is already "
                    f"taken by {owner!r}"
                )
        self._infos[info.name] = info
        self._aliases[info.name] = info.name
        for alias in info.aliases:
            self._aliases[alias] = info.name
        if not info.parallel_safe:
            self._solve_locks[info.name] = threading.RLock()
        self.generation += 1

    def unregister(self, name: str) -> None:
        """Remove one scheduler (primarily for tests)."""
        canonical = self.resolve(name)
        info = self._infos.pop(canonical)
        for alias in (info.name, *info.aliases):
            self._aliases.pop(alias, None)
        self._solve_locks.pop(canonical, None)
        self.generation += 1

    # -- lookup ------------------------------------------------------------
    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (which may be an alias)."""
        self._ensure_builtins()
        try:
            return self._aliases[name]
        except KeyError:
            raise self._unknown(name) from None

    def info(self, name: str) -> SchedulerInfo:
        return self._infos[self.resolve(name)]

    def solve_lock(self, name: str) -> "threading.RLock":
        """The lock serialising a ``parallel_safe=False`` scheduler's solves.

        One per scheduler for the life of the registration, shared by
        every gateway over this registry; ``KeyError`` for a
        ``parallel_safe=True`` scheduler, which needs none.
        """
        return self._solve_locks[self.resolve(name)]

    def create(self, name: str, **options) -> "Allocator":
        """Instantiate the named scheduler, forwarding constructor options."""
        return self.info(name).factory(**options)

    def names(self) -> List[str]:
        """Sorted canonical scheduler names."""
        self._ensure_builtins()
        return sorted(self._infos)

    def rows(self) -> List[Dict[str, object]]:
        """Printable metadata rows, one per registered scheduler."""
        return [self._infos[name].as_row() for name in self.names()]

    def __contains__(self, name: str) -> bool:
        self._ensure_builtins()
        return name in self._aliases

    def __iter__(self) -> Iterator[SchedulerInfo]:
        return iter(self._infos[name] for name in self.names())

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._infos)

    # -- internals ---------------------------------------------------------
    def _ensure_builtins(self) -> None:
        if self._loaded or not self._load_builtins:
            return
        # other threads wait on the lock until every builtin is in; the
        # loading thread's own recursive lookups re-enter it and return.
        # ``_loaded`` is set only on success, so a failed import
        # resurfaces on retry instead of a silently empty registry
        # claiming every scheduler is unknown
        with self._load_lock:
            if self._loaded or self._loading:
                return
            self._loading = True
            try:
                for module in _BUILTIN_MODULES:
                    importlib.import_module(module)
                self._loaded = True
            finally:
                self._loading = False

    def _unknown(self, name: str) -> UnknownSchedulerError:
        return UnknownSchedulerError(
            unknown_name_message(
                "scheduler", name, self._aliases, choices=self.names()
            )
        )


#: The process-wide default registry every entry point shares.
REGISTRY = SchedulerRegistry(load_builtins=True)


def register_scheduler(
    cls: Optional[type] = None,
    *,
    name: Optional[str] = None,
    aliases: Tuple[str, ...] = (),
    family: str = "baseline",
    description: Optional[str] = None,
    pe_within: Optional[str] = None,
    efficiency_constraint: str = "envy_free",
    supports_weights: bool = False,
    supports_job_level: bool = False,
    parallel_safe: bool = True,
    pe_tolerance: float = 1e-5,
    registry: Optional[SchedulerRegistry] = None,
) -> Callable[[type], type]:
    """Class decorator: register an :class:`Allocator` subclass.

    The canonical name defaults to the class's ``name`` attribute and the
    description to the first line of its docstring.  The created
    :class:`SchedulerInfo` is also attached to the class as
    ``cls.metadata`` (the hook declared on ``Allocator``).
    """

    def wrap(klass: type) -> type:
        canonical = name or getattr(klass, "name", None)
        if not canonical or canonical == "allocator":
            raise RegistrationError(
                f"{klass.__name__} needs a distinctive 'name' attribute "
                "(or an explicit name=...) to register"
            )
        if getattr(klass, "name", "allocator") == "allocator":
            klass.name = canonical
        doc = (klass.__doc__ or "").strip().splitlines()
        info = SchedulerInfo(
            name=canonical,
            factory=klass,
            family=family,
            aliases=tuple(aliases),
            description=description if description is not None else (doc[0] if doc else ""),
            pe_within=pe_within,
            efficiency_constraint=efficiency_constraint,
            supports_weights=supports_weights,
            supports_job_level=supports_job_level,
            parallel_safe=parallel_safe,
            pe_tolerance=pe_tolerance,
        )
        # explicit "is not None": an empty registry is falsy via __len__
        target = registry if registry is not None else REGISTRY
        target.register(info)
        klass.metadata = info
        return klass

    if cls is not None:  # bare @register_scheduler usage
        return wrap(cls)
    return wrap


# -- module-level conveniences over the default registry --------------------
def create_scheduler(name: str, **options) -> "Allocator":
    """Instantiate a scheduler from the default registry by name or alias."""
    return REGISTRY.create(name, **options)


def scheduler_info(name: str) -> SchedulerInfo:
    """Metadata for one scheduler from the default registry."""
    return REGISTRY.info(name)


def scheduler_names() -> List[str]:
    """Sorted canonical names of every registered scheduler."""
    return REGISTRY.names()


def resolve_scheduler_name(name: str) -> str:
    """Canonical name for ``name`` in the default registry."""
    return REGISTRY.resolve(name)


def registry_rows() -> List[Dict[str, object]]:
    """Printable metadata rows from the default registry."""
    return REGISTRY.rows()
