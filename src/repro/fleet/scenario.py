"""Fleet recipes: N per-region scenario timelines under one seed.

A :class:`FleetScenario` is a :class:`~repro.scenarios.scenario.Scenario`
with a region count: a frozen, picklable recipe whose builder expands
one region index into a :class:`RegionScript` — an ordinary
single-cluster :class:`~repro.scenarios.scenario.ScenarioScript` the
existing simulator runs unchanged — and whose
:meth:`FleetScenario.materialize` collects every region into a
:class:`FleetScript`.  Determinism contract carries over: same name +
seed + params ⇒ identical per-region event streams, regardless of which
execution backend later fans the regions out.

The global quota layer speaks to regions through one extra event
type, :class:`QuotaUpdate`: at each rebalance-window boundary it
resets tenant weights inside the region, which the warm-start engine
already treats as a cold-solve trigger (the scheduler's decision key
covers weights).  :func:`build_fleet_region` is the module-level
adapter that turns ``(fleet recipe, region index, quota schedule)``
into a plain :class:`~repro.scenarios.scenario.Scenario` — a region
worker builds its own region, and only that one, from the recipe
inside the worker process, so nothing unpicklable ever crosses a
process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.exceptions import ValidationError
from repro.scenarios.events import ScenarioEvent
from repro.scenarios.scenario import Scenario, ScenarioScript

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulator import ClusterSimulator


@dataclass(frozen=True, eq=False)
class QuotaUpdate(ScenarioEvent):
    """Reset tenant weights at a rebalance-window boundary.

    ``weights`` lists ``(tenant_name, weight)`` pairs; tenants that
    departed (or never arrived — e.g. the fluid pre-pass predicted an
    arrival the region dropped) are skipped, everything else goes
    through :meth:`ClusterSimulator.set_tenant_weight`, which flushes
    the warm-start memo.  Fires after same-instant arrivals: scenario
    builders sort stably by time with quota events appended last.
    """

    weights: Tuple[Tuple[str, float], ...] = ()

    def apply(self, simulator: "ClusterSimulator", now: float) -> None:
        for name, weight in self.weights:
            if name in simulator.tenants:
                simulator.set_tenant_weight(name, float(weight))

    def signature(self) -> Tuple:
        return (
            *super().signature(),
            tuple(
                (name, round(float(weight), 9)) for name, weight in self.weights
            ),
        )


@dataclass(frozen=True)
class RegionScript:
    """One region's materialised timeline plus its config overrides."""

    name: str
    script: ScenarioScript
    #: Per-region ``SimulationConfig`` overrides (e.g. ``misreports``,
    #: tenant name -> reported-speedup factors, for adversarial tenants
    #: in ``tenant-swarm``), applied on top of the fleet-level horizon
    #: settings.
    config_overrides: Tuple[Tuple[str, object], ...] = ()


@dataclass(frozen=True)
class FleetScript:
    """One materialised fleet: region timelines in fixed region order."""

    regions: Tuple[RegionScript, ...]

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValidationError("a fleet needs at least one region")
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValidationError("region names must be unique")

    def region(self, name: str) -> RegionScript:
        for region in self.regions:
            if region.name == name:
                return region
        raise ValidationError(f"unknown region {name!r}")


@dataclass(frozen=True)
class FleetScenario(Scenario):
    """A named, seeded multi-region recipe: a :class:`Scenario` with regions.

    ``builder`` must be a module-level callable
    ``builder(fleet, index) -> RegionScript`` that builds region
    ``index`` alone and is a *pure function* of the recipe: each region
    worker calls it for its own region only, inside the worker process,
    and must reconstruct the byte-identical timeline the parent's
    pre-pass saw.
    """

    num_rounds: int = 12
    num_regions: int = 4

    def __post_init__(self) -> None:
        if self.num_regions < 1:
            raise ValidationError("num_regions must be >= 1")
        super().__post_init__()

    def materialize(self) -> FleetScript:  # type: ignore[override]
        """Expand the recipe into fresh, single-use region timelines."""
        return FleetScript(
            tuple(self.builder(self, index) for index in range(self.num_regions))
        )


def build_fleet_region(scenario: Scenario) -> ScenarioScript:
    """Builder for one region's :class:`Scenario` adapter.

    Builds only this worker's region from the fleet recipe and splices
    the precomputed quota schedule into its event stream.  The stable
    sort keeps same-instant base events (arrivals included) ahead of the
    quota update, so a window-boundary arrival is re-weighted by that
    same boundary's quota.
    """
    fleet: FleetScenario = scenario.param("fleet_scenario")  # type: ignore[assignment]
    index = int(scenario.param("region_index"))  # type: ignore[arg-type]
    region = fleet.builder(fleet, index)
    events = list(region.script.events)
    for time, weights in scenario.param("quota", ()):  # type: ignore[union-attr]
        events.append(QuotaUpdate(time=float(time), weights=tuple(weights)))
    events.sort(key=lambda event: event.time)
    return ScenarioScript(
        region.script.topology,
        region.script.initial_tenants,
        tuple(events),
    )


def region_scenario(
    fleet: FleetScenario,
    index: int,
    region_name: str,
    quota: Tuple[Tuple[float, Tuple[Tuple[str, float], ...]], ...] = (),
) -> Scenario:
    """The plain :class:`Scenario` adapter for one region of a fleet."""
    return Scenario(
        name=f"{fleet.name}/{region_name}",
        builder=build_fleet_region,
        seed=fleet.seed,
        num_rounds=fleet.num_rounds,
        round_duration=fleet.round_duration,
        params=tuple(
            sorted(
                {
                    "fleet_scenario": fleet,
                    "region_index": int(index),
                    "quota": tuple(quota),
                }.items()
            )
        ),
        description=f"region {region_name} of fleet {fleet.name}",
    )


__all__ = [
    "FleetScenario",
    "FleetScript",
    "QuotaUpdate",
    "RegionScript",
    "build_fleet_region",
    "region_scenario",
]
