"""The allocator interface shared by OEF and all baselines."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.core.allocation import Allocation
from repro.core.instance import ProblemInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.registry import SchedulerInfo


class Allocator(abc.ABC):
    """Maps a :class:`ProblemInstance` to an :class:`Allocation`.

    Implementations must be deterministic for a given instance so the
    strategy-proofness audit (which re-runs the allocator on perturbed
    speedup matrices) is meaningful.

    Concrete allocators self-register with
    :func:`repro.registry.register_scheduler`, which fills in
    :attr:`metadata` — the registry record carrying the scheduler's
    canonical name, aliases, audit defaults, and capability flags.
    """

    #: Human-readable scheduler name used in reports and experiment tables.
    name: str = "allocator"

    #: Registry record; populated by ``@register_scheduler``.
    metadata: ClassVar[Optional["SchedulerInfo"]] = None

    @abc.abstractmethod
    def allocate(self, instance: ProblemInstance) -> Allocation:
        """Compute the allocation matrix for the given instance."""

    @classmethod
    def describe(cls) -> "SchedulerInfo":
        """This allocator's registry metadata.

        Raises :class:`LookupError` for classes that never registered —
        including unregistered subclasses of registered allocators, whose
        inherited ``metadata`` describes the parent, not them.
        """
        info = cls.__dict__.get("metadata")
        if info is None:
            raise LookupError(
                f"{cls.__name__} is not registered; decorate it with "
                "repro.registry.register_scheduler"
            )
        return info

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
