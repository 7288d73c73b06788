"""Named fleet scenario library: ``spot-preemption``,
``hetero-generations``, ``multiregion-failover``, ``tenant-swarm``.

Fleet recipes live in the scenario registry
(:mod:`repro.scenarios.library`) as its ``"fleet"`` family: they
register through ``register_scenario(..., default_regions=N)`` and each
builder is ``builder(fleet, index) -> RegionScript`` — it builds region
``index`` of a seeded :class:`~repro.fleet.scenario.FleetScenario`
alone, with all randomness flowing through rngs derived from ``(fleet
seed, region index)``, so a region worker can build just its own region
and every backend sees identical event streams.

Any *single-cluster* scenario (library names and ``trace:<name>``
replays alike) also runs at fleet scale through
:func:`sharded_fleet`: each region materialises the base timeline and
keeps the tenants routed to it by a stable hash of their name —
``repro fleet-sim --scenario steady --regions 8`` just works.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.tenant import Tenant
from repro.cluster.topology import ClusterTopology, paper_cluster, scaled_cluster
from repro.exceptions import ValidationError
from repro.fleet.scenario import FleetScenario, RegionScript
from repro.scenarios.events import (
    DeviceFailure,
    DeviceRepair,
    JobArrival,
    ScenarioEvent,
    TenantArrival,
    TenantDeparture,
)
from repro.scenarios.library import (
    lookup_recipe,
    make_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.scenario import Scenario, ScenarioScript
from repro.workloads.generator import TenantGenerator
from repro.workloads.models import PAPER_GPU_TYPES, all_models


def fleet_scenario_names() -> List[str]:
    """Sorted names of every registered fleet scenario."""
    return scenario_names("fleet")


def make_fleet_scenario(
    name: str,
    *,
    seed: int = 0,
    regions: Optional[int] = None,
    rounds: Optional[int] = None,
    round_duration: float = 300.0,
    **params: object,
) -> FleetScenario:
    """Build a seeded :class:`FleetScenario` recipe from a registered name."""
    info, merged = lookup_recipe("fleet", name, params)
    return FleetScenario(
        name=name,
        builder=info.builder,
        seed=int(seed),
        num_regions=int(regions) if regions is not None else info.default_regions,
        num_rounds=int(rounds) if rounds is not None else info.default_rounds,
        round_duration=float(round_duration),
        params=merged,
        description=info.description,
    )


def resolve_fleet_scenario(
    name: str,
    *,
    seed: int = 0,
    regions: Optional[int] = None,
    rounds: Optional[int] = None,
    round_duration: float = 300.0,
    **params: object,
) -> FleetScenario:
    """Fleet registry names first; anything else shards a base scenario.

    Cluster library names and ``trace:<name>`` replays both resolve
    through :func:`~repro.scenarios.library.make_scenario` and ride
    :func:`sharded_fleet`; unknown names keep their typed errors
    (:class:`~repro.exceptions.ValidationError` with did-you-mean,
    :class:`~repro.exceptions.UnknownTraceError` for traces).
    """
    if name in fleet_scenario_names():
        return make_fleet_scenario(
            name,
            seed=seed,
            regions=regions,
            rounds=rounds,
            round_duration=round_duration,
            **params,
        )
    base = make_scenario(
        name,
        seed=seed,
        rounds=rounds,
        round_duration=round_duration,
        **params,
    )
    return sharded_fleet(base, regions if regions is not None else 4)


# -- shared building blocks ----------------------------------------------------
def _region(
    index: int,
    topology: ClusterTopology,
    tenants: Sequence[Tenant],
    events: Sequence[ScenarioEvent],
    config_overrides: Tuple[Tuple[str, object], ...] = (),
) -> RegionScript:
    """Region ``index``'s timeline under its fleet-wide name."""
    return RegionScript(
        f"region{index}",
        ScenarioScript(topology, tuple(tenants), tuple(events)),
        config_overrides=config_overrides,
    )


def _region_seed(fleet: FleetScenario, index: int) -> int:
    # distinct per (fleet seed, region); the constant just spreads seeds
    # so region streams never accidentally coincide with cluster ones
    return fleet.seed * 7919 + index + 1


def _region_population(
    fleet: FleetScenario,
    index: int,
    generator: TenantGenerator,
    count: int,
    jobs_per_tenant: int,
    duration_fraction: float = 0.6,
) -> List[Tenant]:
    """``count`` tenants with fleet-unique names and round-robin models."""
    models = all_models()
    tenants = []
    for offset in range(count):
        tenants.append(
            generator.make_tenant(
                name=f"r{index}t{offset + 1}",
                model_name=models[(index + offset) % len(models)],
                num_jobs=jobs_per_tenant,
                duration_on_slowest=duration_fraction * fleet.horizon,
            )
        )
    return tenants


# -- the library ---------------------------------------------------------------
@register_scenario(
    "spot-preemption",
    description="random device batches vanish and return, per region",
    default_rounds=12,
    default_regions=4,
    tenants_per_region=4,
    jobs_per_tenant=3,
    preemptions=3,
    batch_devices=4,
    outage_rounds=2,
)
def build_spot_preemption(fleet: FleetScenario, index: int) -> RegionScript:
    """Spot-market churn: every region loses random device batches."""
    outage = float(fleet.param("outage_rounds")) * fleet.round_duration
    topology = paper_cluster()
    generator = TenantGenerator(
        gpu_types=topology.gpu_type_names, seed=_region_seed(fleet, index)
    )
    rng = np.random.default_rng([fleet.seed, index])
    tenants = _region_population(
        fleet,
        index,
        generator,
        int(fleet.param("tenants_per_region")),
        int(fleet.param("jobs_per_tenant")),
    )
    events: List[ScenarioEvent] = []
    times = np.sort(
        rng.uniform(
            0.1 * fleet.horizon,
            0.7 * fleet.horizon,
            size=int(fleet.param("preemptions")),
        )
    ).clip(max=fleet.last_round_start)
    for preempt_time in times:
        batch = tuple(
            int(device_id)
            for device_id in rng.choice(
                topology.num_devices,
                size=min(int(fleet.param("batch_devices")), topology.num_devices),
                replace=False,
            )
        )
        events.append(DeviceFailure(time=float(preempt_time), device_ids=batch))
        events.append(
            DeviceRepair(
                time=min(float(preempt_time) + outage, fleet.last_round_start),
                device_ids=batch,
            )
        )
    events.sort(key=lambda event: event.time)
    return _region(index, topology, tenants, events)


@register_scenario(
    "hetero-generations",
    description="regions run different GPU generation mixes of one fleet",
    default_rounds=12,
    default_regions=4,
    devices_per_type=8,
    tenants_per_region=4,
    jobs_per_tenant=3,
)
def build_hetero_generations(fleet: FleetScenario, index: int) -> RegionScript:
    """Hardware skew: old-only, mixed, and new-only regions coexist."""
    # slowest-first subsets, cycled across regions: a full mix, the two
    # older generations, the two newer, then latest-only
    mixes = [
        list(PAPER_GPU_TYPES),
        list(PAPER_GPU_TYPES[:2]),
        list(PAPER_GPU_TYPES[1:]),
        list(PAPER_GPU_TYPES[2:]),
    ]
    topology = scaled_cluster(
        mixes[index % len(mixes)], int(fleet.param("devices_per_type"))
    )
    generator = TenantGenerator(
        gpu_types=topology.gpu_type_names, seed=_region_seed(fleet, index)
    )
    tenants = _region_population(
        fleet,
        index,
        generator,
        int(fleet.param("tenants_per_region")),
        int(fleet.param("jobs_per_tenant")),
    )
    return _region(index, topology, tenants, [])


@register_scenario(
    "multiregion-failover",
    description="region0 mostly fails mid-run; its tenants re-home elsewhere",
    default_rounds=12,
    default_regions=4,
    tenants_per_region=4,
    jobs_per_tenant=3,
    fail_fraction=0.4,
    survivors=4,
)
def build_multiregion_failover(fleet: FleetScenario, index: int) -> RegionScript:
    """The DR drill: mass device failure plus cross-region tenant migration."""
    fail_time = min(
        float(fleet.param("fail_fraction")) * fleet.horizon,
        fleet.last_round_start,
    )
    models = all_models()
    jobs_per_tenant = int(fleet.param("jobs_per_tenant"))
    tenants_per_region = int(fleet.param("tenants_per_region"))
    topology = paper_cluster()
    generator = TenantGenerator(
        gpu_types=topology.gpu_type_names, seed=_region_seed(fleet, index)
    )
    tenants = _region_population(
        fleet, index, generator, tenants_per_region, jobs_per_tenant
    )
    events: List[ScenarioEvent] = []
    if index == 0:
        # a handful of survivors keeps the regional scheduler's
        # problem well-posed (a zero-capacity cluster has no shares)
        survivors = max(1, int(fleet.param("survivors")))
        failed = tuple(range(max(0, topology.num_devices - survivors)))
        events.append(DeviceFailure(time=fail_time, device_ids=failed))
        for tenant in tenants:
            events.append(TenantDeparture(time=fail_time, tenant_name=tenant.name))
    elif fleet.num_regions > 1:
        # region0's displaced tenants re-home round-robin over the
        # surviving regions, keeping their model mix (fresh jobs:
        # checkpoint state does not survive a region loss here)
        for offset in range(tenants_per_region):
            if offset % (fleet.num_regions - 1) + 1 != index:
                continue
            refugee = generator.make_tenant(
                name=f"r0t{offset + 1}-failover",
                model_name=models[offset % len(models)],
                num_jobs=jobs_per_tenant,
                duration_on_slowest=0.4 * fleet.horizon,
                submit_time=fail_time,
            )
            events.append(TenantArrival(time=fail_time, tenant=refugee))
    events.sort(key=lambda event: event.time)
    return _region(index, topology, tenants, events)


@register_scenario(
    "tenant-swarm",
    description="large churning population with an adversarial misreporting slice",
    default_rounds=12,
    default_regions=4,
    tenants_per_region=8,
    jobs_per_tenant=2,
    churn_fraction=0.5,
    adversarial_fraction=0.25,
    misreport_factor=1.5,
)
def build_tenant_swarm(fleet: FleetScenario, index: int) -> RegionScript:
    """Population pressure: many small tenants, some lying about speedups."""
    churn_fraction = min(1.0, max(0.0, float(fleet.param("churn_fraction"))))
    adversarial_fraction = min(
        1.0, max(0.0, float(fleet.param("adversarial_fraction")))
    )
    factor = max(1.0, float(fleet.param("misreport_factor")))
    topology = paper_cluster()
    generator = TenantGenerator(
        gpu_types=topology.gpu_type_names, seed=_region_seed(fleet, index)
    )
    rng = np.random.default_rng([fleet.seed, index, 1])
    count = int(fleet.param("tenants_per_region"))
    tenants = _region_population(
        fleet,
        index,
        generator,
        count,
        int(fleet.param("jobs_per_tenant")),
        duration_fraction=0.45,
    )
    resident_count = count - int(round(churn_fraction * count))
    events: List[ScenarioEvent] = []
    for tenant in tenants[resident_count:]:
        arrival = min(
            float(rng.uniform(0.05, 0.5)) * fleet.horizon,
            fleet.last_round_start,
        )
        departure = min(arrival + 0.4 * fleet.horizon, fleet.last_round_start)
        rehomed = Tenant(name=tenant.name, weight=tenant.weight, arrival_time=arrival)
        for job in tenant.jobs:
            job.submit_time = arrival
            rehomed.add_job(job)
        events.append(TenantArrival(time=arrival, tenant=rehomed))
        events.append(TenantDeparture(time=departure, tenant_name=tenant.name))
    events.sort(key=lambda event: event.time)
    # the first adversarial_fraction of tenants inflate their reported
    # speedups on faster GPU types (the paper's Fig. 4b cheat)
    num_types = len(topology.gpu_type_names)
    cheat = tuple(
        round(factor ** (j / max(1, num_types - 1)), 9) for j in range(num_types)
    )
    liars = tuple(
        (tenant.name, cheat)
        for tenant in tenants[: int(round(adversarial_fraction * count))]
    )
    return _region(
        index,
        topology,
        tenants[:resident_count],
        events,
        config_overrides=(("misreports", dict(liars)),) if liars else (),
    )


# -- sharding arbitrary single-cluster scenarios -------------------------------
def shard_of(name: str, num_regions: int) -> int:
    """Stable tenant-to-region routing: crc32 of the tenant name."""
    return zlib.crc32(name.encode("utf-8")) % num_regions


def _event_shard(event: ScenarioEvent, num_regions: int) -> int:
    if isinstance(event, TenantArrival):
        return shard_of(event.tenant.name, num_regions)
    if isinstance(event, (TenantDeparture, JobArrival)):
        return shard_of(event.tenant_name, num_regions)
    # device events (and anything tenant-less) route by content hash so
    # every region build sends them to the same replica
    return zlib.crc32(repr(event.signature()).encode("utf-8")) % num_regions


def build_sharded_fleet(fleet: FleetScenario, index: int) -> RegionScript:
    """Builder: materialise the base scenario, keep region ``index``'s shard.

    Each region runs the (deterministic) base builder once and keeps
    only the tenants hashed to its shard, over a full replica of the
    base topology — the fleet models N copies of the cluster serving a
    partitioned population.
    """
    base: Scenario = fleet.param("base")  # type: ignore[assignment]
    script = base.materialize()
    initial = [
        tenant
        for tenant in script.initial_tenants
        if shard_of(tenant.name, fleet.num_regions) == index
    ]
    events = [
        event
        for event in script.events
        if _event_shard(event, fleet.num_regions) == index
    ]
    return _region(index, script.topology, initial, events)


def sharded_fleet(base: Scenario, num_regions: int) -> FleetScenario:
    """Wrap any single-cluster :class:`Scenario` as an N-region fleet."""
    if num_regions < 1:
        raise ValidationError("num_regions must be >= 1")
    return FleetScenario(
        name=f"sharded:{base.name}",
        builder=build_sharded_fleet,
        seed=base.seed,
        num_regions=int(num_regions),
        num_rounds=base.num_rounds,
        round_duration=base.round_duration,
        params=(("base", base),),
        description=f"{num_regions}-region sharding of scenario {base.name!r}",
    )


__all__ = [
    "build_sharded_fleet",
    "fleet_scenario_names",
    "make_fleet_scenario",
    "resolve_fleet_scenario",
    "shard_of",
    "sharded_fleet",
]
