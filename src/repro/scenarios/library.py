"""Named scenario library: ``steady``, ``bursty``, ``diurnal``,
``tenant-churn``, and ``philly-replay``.

Each scenario is a registered builder that expands a seeded
:class:`~repro.scenarios.scenario.Scenario` recipe into a
:class:`~repro.scenarios.scenario.ScenarioScript` (topology, initial
tenants, timed events).  All randomness flows through one
``numpy.random.default_rng(seed)`` per materialisation, so the same
name + seed always yields the same event stream.

Adding a scenario is one decorator::

    from repro.scenarios.library import register_scenario

    @register_scenario(
        "my-scenario", description="...", default_rounds=24, my_knob=3,
    )
    def build_my_scenario(scenario):
        ...
        return ScenarioScript(topology, initial_tenants, events)

and it appears in ``repro list-scenarios``, ``repro simulate
--scenario my-scenario``, and the scenario-comparison experiment
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.tenant import Tenant
from repro.cluster.topology import ClusterTopology, paper_cluster
from repro.exceptions import ValidationError, unknown_name_message
from repro.scenarios.events import (
    JobArrival,
    ScenarioEvent,
    TenantArrival,
    TenantDeparture,
)
from repro.scenarios.scenario import Scenario, ScenarioScript
from repro.workloads.generator import TenantGenerator
from repro.workloads.philly import PhillyTraceConfig, PhillyTraceGenerator


@dataclass(frozen=True)
class ScenarioInfo:
    """Registry record for one named scenario."""

    name: str
    builder: object
    description: str
    default_rounds: int
    default_params: Tuple[Tuple[str, object], ...]
    #: Region count of a fleet recipe; ``None`` for a single-cluster one.
    default_regions: Optional[int] = None

    @property
    def family(self) -> str:
        """``"fleet"`` for a recipe with regions, ``"cluster"`` otherwise
        (the trace store adds ``"trace"`` rows of its own)."""
        return "cluster" if self.default_regions is None else "fleet"

    def as_row(self) -> Dict[str, object]:
        """One printable table row for ``repro list-scenarios``."""
        params = [f"{k}={v}" for k, v in self.default_params]
        if self.default_regions is not None:
            params.insert(0, f"regions={self.default_regions}")
        return {
            "name": self.name,
            "family": self.family,
            "rounds": self.default_rounds,
            "params": ", ".join(params) or "-",
            "description": self.description,
        }


_SCENARIOS: Dict[str, ScenarioInfo] = {}


def register_scenario(
    name: str,
    *,
    description: str = "",
    default_rounds: int = 24,
    default_regions: Optional[int] = None,
    **default_params: object,
):
    """Function decorator: register a recipe builder under ``name``.

    A single-cluster builder is ``builder(scenario) -> ScenarioScript``;
    with ``default_regions`` set the recipe is a fleet and its builder is
    ``builder(fleet, index) -> RegionScript`` (see
    :mod:`repro.fleet.library`).  Both families share one name space.
    """

    def wrap(builder):
        if name in _SCENARIOS:
            raise ValidationError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = ScenarioInfo(
            name=name,
            builder=builder,
            description=description or (builder.__doc__ or "").strip().split("\n")[0],
            default_rounds=default_rounds,
            default_params=tuple(sorted(default_params.items())),
            default_regions=default_regions,
        )
        return builder

    return wrap


def scenario_names(family: str = "cluster") -> List[str]:
    """Sorted names of every registered ``family`` recipe."""
    return sorted(name for name, info in _SCENARIOS.items() if info.family == family)


def scenario_rows(family: str = "cluster") -> List[Dict[str, object]]:
    """Printable metadata rows, one per registered ``family`` recipe."""
    return [_SCENARIOS[name].as_row() for name in scenario_names(family)]


def lookup_recipe(
    family: str, name: str, params: Dict[str, object]
) -> Tuple[ScenarioInfo, Tuple[Tuple[str, object], ...]]:
    """The registered ``family`` recipe ``name`` and its merged knobs.

    ``params`` override the recipe's registered shape knobs; unknown
    names (with a did-you-mean over the family) and unknown knobs are
    rejected so typos fail loudly rather than silently running the
    default shape.
    """
    kind = "scenario" if family == "cluster" else f"{family} scenario"
    names = scenario_names(family)
    if name not in names:
        raise ValidationError(unknown_name_message(kind, name, names))
    info = _SCENARIOS[name]
    merged = dict(info.default_params)
    unknown = sorted(set(params) - set(merged))
    if unknown:
        raise ValidationError(
            f"unknown {name!r} {kind} parameters {unknown}; "
            f"known: {sorted(merged)}"
        )
    merged.update(params)
    return info, tuple(sorted(merged.items()))


def make_scenario(
    name: str,
    *,
    seed: int = 0,
    rounds: Optional[int] = None,
    round_duration: float = 300.0,
    **params: object,
) -> Scenario:
    """Build a seeded :class:`Scenario` recipe from a registered name.

    ``params`` override the scenario's shape knobs (see
    :func:`lookup_recipe`); fleet recipes are not found here, only by
    :func:`repro.fleet.library.make_fleet_scenario`.

    ``trace:<name>`` names resolve through the trace store
    (:mod:`repro.traces`) instead of the registry: they replay an
    ingested trace, and unknown trace names raise
    :class:`~repro.exceptions.UnknownTraceError`.
    """
    if name.startswith("trace:"):
        from repro.traces.replay import TRACE_PREFIX, trace_scenario

        return trace_scenario(
            name[len(TRACE_PREFIX):],
            seed=int(seed),
            rounds=rounds,
            round_duration=round_duration,
            **params,  # type: ignore[arg-type]
        )
    info, merged = lookup_recipe("cluster", name, params)
    return Scenario(
        name=name,
        builder=info.builder,
        seed=int(seed),
        num_rounds=int(rounds) if rounds is not None else info.default_rounds,
        round_duration=float(round_duration),
        params=merged,
        description=info.description,
    )


# -- shared building blocks ----------------------------------------------------
def _generator(scenario: Scenario, topology: ClusterTopology) -> TenantGenerator:
    """One job/tenant factory per materialisation: fresh, seeded, unique ids."""
    return TenantGenerator(gpu_types=topology.gpu_type_names, seed=scenario.seed)


def _tenant_model(tenant: Tenant) -> str:
    """The model family a single-model tenant runs (its first job's)."""
    return tenant.jobs[0].model_name


# -- the library ---------------------------------------------------------------
@register_scenario(
    "steady",
    description="static population, constant load: the no-dynamics baseline",
    default_rounds=24,
    num_tenants=4,
    jobs_per_tenant=3,
    duration_fraction=0.6,
)
def build_steady(scenario: Scenario) -> ScenarioScript:
    """Every tenant present at t=0, no arrivals or departures afterwards."""
    topology = paper_cluster()
    generator = _generator(scenario, topology)
    tenants = generator.make_population(
        int(scenario.param("num_tenants")),
        jobs_per_tenant=int(scenario.param("jobs_per_tenant")),
        duration_on_slowest=float(scenario.param("duration_fraction"))
        * scenario.horizon,
    )
    return ScenarioScript(topology, tuple(tenants), ())


@register_scenario(
    "bursty",
    description="steady base load punctuated by short demand spikes",
    default_rounds=24,
    num_tenants=3,
    jobs_per_tenant=2,
    num_bursts=3,
    burst_jobs=4,
    burst_duration_fraction=0.12,
)
def build_bursty(scenario: Scenario) -> ScenarioScript:
    """Random tenants submit bursts of short jobs at random instants."""
    topology = paper_cluster()
    generator = _generator(scenario, topology)
    rng = np.random.default_rng(scenario.seed)
    tenants = generator.make_population(
        int(scenario.param("num_tenants")),
        jobs_per_tenant=int(scenario.param("jobs_per_tenant")),
        duration_on_slowest=0.5 * scenario.horizon,
    )
    # clamp to the last round start so every burst fires at any --rounds
    burst_times = np.sort(
        rng.uniform(
            0.1 * scenario.horizon,
            0.8 * scenario.horizon,
            size=int(scenario.param("num_bursts")),
        )
    ).clip(max=scenario.last_round_start)
    events: List[ScenarioEvent] = []
    for burst_time in burst_times:
        for _ in range(int(scenario.param("burst_jobs"))):
            tenant = tenants[int(rng.integers(len(tenants)))]
            events.append(
                JobArrival(
                    time=float(burst_time),
                    tenant_name=tenant.name,
                    job=generator.make_job(
                        tenant.name,
                        _tenant_model(tenant),
                        duration_on_slowest=float(
                            scenario.param("burst_duration_fraction")
                        )
                        * scenario.horizon,
                        submit_time=float(burst_time),
                    ),
                )
            )
    return ScenarioScript(topology, tuple(tenants), tuple(events))


@register_scenario(
    "diurnal",
    description="sinusoidal day/night arrival intensity over the horizon",
    default_rounds=24,
    num_tenants=4,
    base_rate=0.6,
    amplitude=1.0,
    periods=2.0,
    job_duration_fraction=0.15,
    initial_duration_fraction=0.4,
)
def build_diurnal(scenario: Scenario) -> ScenarioScript:
    """Per-round Poisson job arrivals whose rate follows a sine wave."""
    topology = paper_cluster()
    generator = _generator(scenario, topology)
    rng = np.random.default_rng(scenario.seed)
    tenants = generator.make_population(
        int(scenario.param("num_tenants")),
        jobs_per_tenant=1,
        duration_on_slowest=float(scenario.param("initial_duration_fraction"))
        * scenario.horizon,
    )
    base = float(scenario.param("base_rate"))
    amplitude = float(scenario.param("amplitude"))
    periods = float(scenario.param("periods"))
    events: List[ScenarioEvent] = []
    for round_index in range(1, scenario.num_rounds):
        phase = 2.0 * np.pi * periods * round_index / scenario.num_rounds
        rate = max(0.0, base * (1.0 + amplitude * np.sin(phase)))
        arrivals = int(rng.poisson(rate))
        now = round_index * scenario.round_duration
        for _ in range(arrivals):
            tenant = tenants[int(rng.integers(len(tenants)))]
            events.append(
                JobArrival(
                    time=now,
                    tenant_name=tenant.name,
                    job=generator.make_job(
                        tenant.name,
                        _tenant_model(tenant),
                        duration_on_slowest=float(
                            scenario.param("job_duration_fraction")
                        )
                        * scenario.horizon,
                        submit_time=now,
                    ),
                )
            )
    return ScenarioScript(topology, tuple(tenants), tuple(events))


@register_scenario(
    "tenant-churn",
    description="tenants keep arriving and departing throughout the run",
    default_rounds=24,
    resident_tenants=2,
    churn_tenants=4,
    jobs_per_tenant=2,
    lifetime_fraction=0.35,
)
def build_tenant_churn(scenario: Scenario) -> ScenarioScript:
    """Resident base load plus a rotating cast of short-lived tenants."""
    topology = paper_cluster()
    generator = _generator(scenario, topology)
    rng = np.random.default_rng(scenario.seed)
    jobs_per_tenant = int(scenario.param("jobs_per_tenant"))
    residents = generator.make_population(
        int(scenario.param("resident_tenants")),
        jobs_per_tenant=jobs_per_tenant,
        duration_on_slowest=0.7 * scenario.horizon,
    )
    churn_count = int(scenario.param("churn_tenants"))
    lifetime = float(scenario.param("lifetime_fraction")) * scenario.horizon
    arrivals = np.sort(
        rng.uniform(0.05 * scenario.horizon, 0.6 * scenario.horizon, churn_count)
    )
    events: List[ScenarioEvent] = []
    for index, arrival in enumerate(arrivals):
        # clamp both ends to the last round start so the full
        # arrive-then-depart cycle stays observable at any --rounds
        arrival = min(float(arrival), scenario.last_round_start)
        name = f"churn{index + 1}"
        tenant = generator.make_tenant(
            name,
            num_jobs=jobs_per_tenant,
            duration_on_slowest=0.4 * scenario.horizon,
            submit_time=arrival,
        )
        events.append(TenantArrival(time=arrival, tenant=tenant))
        events.append(
            TenantDeparture(
                time=min(arrival + lifetime, scenario.last_round_start),
                tenant_name=name,
            )
        )
    events.sort(key=lambda event: event.time)
    return ScenarioScript(topology, tuple(residents), tuple(events))


@register_scenario(
    "philly-replay",
    description="replay a Philly-shaped synthetic trace through the event queue",
    default_rounds=24,
    num_tenants=8,
    jobs_per_tenant_mean=3.0,
    contention=0.8,
    duration_sigma=1.0,
)
def build_philly_replay(scenario: Scenario) -> ScenarioScript:
    """Heavy-tailed durations, mostly 1-GPU jobs, Poisson tenant arrivals.

    Reuses :class:`~repro.workloads.philly.PhillyTraceGenerator` with the
    trace window pinned to the scenario horizon; tenants arriving after
    t=0 enter through :class:`~repro.scenarios.events.TenantArrival`
    events rather than pre-seeded arrival times, so the replay exercises
    the same dynamic-admission path every other scenario uses.
    """
    topology = paper_cluster()
    config = PhillyTraceConfig(
        num_tenants=int(scenario.param("num_tenants")),
        jobs_per_tenant_mean=float(scenario.param("jobs_per_tenant_mean")),
        window_seconds=scenario.horizon,
        duration_median_seconds=scenario.horizon / 8.0,
        duration_sigma=float(scenario.param("duration_sigma")),
        contention=float(scenario.param("contention")),
        seed=scenario.seed,
    )
    trace = PhillyTraceGenerator(
        config=config, cluster_devices=topology.num_devices
    ).generate()
    initial: List[Tenant] = []
    events: List[ScenarioEvent] = []
    for tenant in trace:
        if tenant.arrival_time <= 0.0:
            initial.append(tenant)
        else:
            # clamp admission to the last round start (the jobs still
            # honour their own submit times) so no arrival is lost at
            # tiny --rounds settings
            events.append(
                TenantArrival(
                    time=min(tenant.arrival_time, scenario.last_round_start),
                    tenant=tenant,
                )
            )
    events.sort(key=lambda event: event.time)
    return ScenarioScript(topology, tuple(initial), tuple(events))


__all__ = [
    "ScenarioInfo",
    "lookup_recipe",
    "make_scenario",
    "register_scenario",
    "scenario_names",
    "scenario_rows",
]
