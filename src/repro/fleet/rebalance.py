"""Global fair share across regions: the fleet's quota rebalancer.

A fleet is N regional clusters scheduled independently; left alone, a
tenant's share depends on who it happens to share a *region* with, not
on the fleet.  The rebalancer closes that gap with a fluid pre-pass:
at every rebalance-window boundary it reconstructs the fleet-wide
scheduling problem — who is active in any region, what they run, what
capacity survives failures — solves it with one of the registered
allocators (OEF by default), and converts the resulting global shares
into per-tenant weight multipliers that regional schedulers honour via
:class:`~repro.fleet.scenario.QuotaUpdate` events.

Because the pre-pass is a pure function of the (frozen, seeded)
:class:`~repro.fleet.scenario.FleetScenario`, the schedule can be
computed once in the parent and shipped to region workers as plain
data — every backend replays the identical weight timeline, which is
what makes fleet fingerprints backend-independent.

Fairness is audited where it is claimed: each window's global
allocation is run through the exact PE and SI checks
(:mod:`repro.core.properties`; an OEF answer's PE is proved from its own
certificate, without an LP) whenever the tenant count stays under
``property_check_max_tenants`` (LPs over thousands of tenants would
dominate the run; above the cap the window is marked unchecked, not
passed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.tenant import Tenant
from repro.core.instance import ProblemInstance
from repro.core.properties import check_pareto_efficiency, check_sharing_incentive
from repro.core.speedup import SpeedupMatrix
from repro.exceptions import ValidationError
from repro.fleet.scenario import FleetScenario, FleetScript
from repro.registry import create_scheduler, scheduler_info
from repro.scenarios.events import (
    DeviceFailure,
    DeviceRepair,
    JobArrival,
    TenantArrival,
    TenantDeparture,
)
from repro.workloads.models import throughput_vector

#: Above this many fleet-wide tenants the exact PE/SI LPs are skipped
#: and the window reports ``checked=False`` (the 10k-tenant acceptance
#: run must not spend its wall-clock inside property LPs).
DEFAULT_PROPERTY_CHECK_MAX_TENANTS = 256

#: Quota weights are snapped to multiples of ``1/QUOTA_WEIGHT_DENOMINATOR``
#: (and capped at ``QUOTA_WEIGHT_CAP``).  The grid dates from when the
#: weighted OEF schedulers *computed* with §4.2.3's replicas, one LP row
#: per unit of a common denominator; a weight is now a real multiplicity
#: on a single row and the solver no longer needs it.  Kept for one more
#: change (ROADMAP item 6 deletion material): real-valued quotas read
#: 0-17 % slower on ``fleet-failover`` when tried on top of the compact
#: program, and a zero global share still needs the positive floor
#: ``quantize_weight`` gives it.
QUOTA_WEIGHT_DENOMINATOR = 8
QUOTA_WEIGHT_CAP = 16.0


def quantize_weight(value: float) -> float:
    """Snap a weight multiplier onto the eighths grid, floor 1/8, cap 16."""
    value = min(float(value), QUOTA_WEIGHT_CAP)
    steps = max(1, round(value * QUOTA_WEIGHT_DENOMINATOR))
    return steps / QUOTA_WEIGHT_DENOMINATOR


@dataclass(frozen=True)
class QuotaWindow:
    """One rebalance decision: who got which global share, and was it fair."""

    index: int
    time: float
    tenants: Tuple[str, ...]
    shares: Tuple[float, ...]
    #: ``(region, tenant, weight)`` triples — the weights shipped to regions.
    weights: Tuple[Tuple[str, str, float], ...]
    checked: bool
    pareto_satisfied: Optional[bool] = None
    sharing_incentive_satisfied: Optional[bool] = None

    @property
    def violated(self) -> bool:
        """True when a *checked* window failed PE or SI."""
        return self.checked and not (
            bool(self.pareto_satisfied) and bool(self.sharing_incentive_satisfied)
        )


@dataclass(frozen=True)
class QuotaSchedule:
    """The full precomputed weight timeline, ready to splice into regions."""

    scheduler: str
    window_rounds: int
    windows: Tuple[QuotaWindow, ...] = ()

    @property
    def violations(self) -> int:
        return sum(1 for window in self.windows if window.violated)

    @property
    def checked_windows(self) -> int:
        return sum(1 for window in self.windows if window.checked)

    def for_region(
        self, region: str
    ) -> Tuple[Tuple[float, Tuple[Tuple[str, float], ...]], ...]:
        """This region's ``(time, ((tenant, weight), ...))`` event payloads."""
        quota: List[Tuple[float, Tuple[Tuple[str, float], ...]]] = []
        for window in self.windows:
            weights = tuple(
                (tenant, weight)
                for region_name, tenant, weight in window.weights
                if region_name == region
            )
            if weights:
                quota.append((window.time, weights))
        return tuple(quota)


@dataclass
class _RegionState:
    """One region's tenant/job/capacity view, replayed up to a boundary."""

    region: str
    tenants: Dict[str, Tenant] = field(default_factory=dict)
    jobs: Dict[str, List] = field(default_factory=dict)
    failed: set = field(default_factory=set)


def _advance(state: _RegionState, events, upto: float) -> int:
    """Apply events with ``time <= upto``; returns how many were consumed."""
    consumed = 0
    for event in events:
        if event.time > upto:
            break
        consumed += 1
        if isinstance(event, TenantArrival):
            state.tenants[event.tenant.name] = event.tenant
            state.jobs[event.tenant.name] = list(event.tenant.jobs)
        elif isinstance(event, TenantDeparture):
            state.tenants.pop(event.tenant_name, None)
            state.jobs.pop(event.tenant_name, None)
        elif isinstance(event, JobArrival):
            if event.tenant_name in state.jobs:
                state.jobs[event.tenant_name].append(event.job)
        elif isinstance(event, DeviceFailure):
            state.failed.update(event.device_ids)
        elif isinstance(event, DeviceRepair):
            state.failed.difference_update(event.device_ids)
    return consumed


def _fleet_gpu_types(script: FleetScript) -> List[str]:
    """Union of region GPU types, slowest first (rank order)."""
    ranked: Dict[str, int] = {}
    for region in script.regions:
        for device in region.script.topology.devices:
            ranked[device.gpu_type.name] = device.gpu_type.rank
    return [name for name, _ in sorted(ranked.items(), key=lambda kv: (kv[1], kv[0]))]


def _capacities(state: _RegionState, topology, gpu_types: List[str]) -> np.ndarray:
    counts = {name: 0.0 for name in gpu_types}
    for device in topology.devices:
        if device.failed or device.device_id in state.failed:
            continue
        counts[device.gpu_type.name] += 1.0
    return np.asarray([counts[name] for name in gpu_types], dtype=float)


def _tenant_row(
    jobs, gpu_types: List[str], model_rows: Dict[str, np.ndarray]
) -> Optional[np.ndarray]:
    """A tenant's fleet-wide speedup row: its first job's model profile,
    one read-only row per model kept in ``model_rows``.

    The row is normalised downstream, so only the model *shape* matters;
    the first job (arrival order, deterministic) is as representative a
    choice as any without re-deriving a whole demand model here.
    """
    if not jobs:
        return None
    model = jobs[0].model_name
    row = model_rows.get(model)
    if row is None:
        row = model_rows[model] = throughput_vector(model, gpu_types)
        row.setflags(write=False)
    return row


def compute_quota_schedule(
    fleet: FleetScenario,
    *,
    scheduler: str = "oef-coop",
    window_rounds: int = 6,
    check_properties: bool = True,
    property_check_max_tenants: int = DEFAULT_PROPERTY_CHECK_MAX_TENANTS,
    script: Optional[FleetScript] = None,
) -> QuotaSchedule:
    """The fluid pre-pass: one :class:`QuotaWindow` per rebalance boundary.

    Boundaries sit at ``window_rounds``-round intervals, clamped to the
    last round start (the simulator warns about events it can never
    fire).  Pass ``script`` to reuse an already-materialised fleet; by
    default the recipe is materialised fresh, which is safe because
    materialisation is deterministic.

    A window that asks the question of an earlier one (the same tenants,
    rows, capacities and home regions) reuses its answer and verdicts
    under its own index and time: :func:`_solve_window` runs once per
    distinct question.
    """
    if window_rounds < 1:
        raise ValidationError("window_rounds must be >= 1")
    fleet_script = fleet.materialize() if script is None else script
    gpu_types = _fleet_gpu_types(fleet_script)
    states: List[_RegionState] = []
    pending: List[List] = []
    for region in fleet_script.regions:
        state = _RegionState(region=region.name)
        for tenant in region.script.initial_tenants:
            state.tenants[tenant.name] = tenant
            state.jobs[tenant.name] = list(tenant.jobs)
        states.append(state)
        pending.append(list(region.script.events))

    windows: List[QuotaWindow] = []
    answers: Dict[tuple, QuotaWindow] = {}
    model_rows: Dict[str, np.ndarray] = {}
    boundary = float(window_rounds) * fleet.round_duration
    index = 0
    while boundary <= fleet.last_round_start + 1e-9:
        time = min(boundary, fleet.last_round_start)
        rows: List[np.ndarray] = []
        names: List[str] = []
        home_region: Dict[str, str] = {}
        capacities = np.zeros(len(gpu_types), dtype=float)
        for state, region, events in zip(states, fleet_script.regions, pending):
            consumed = _advance(state, events, time)
            del events[:consumed]
            capacities += _capacities(state, region.script.topology, gpu_types)
            for name in sorted(state.tenants):
                row = _tenant_row(state.jobs.get(name, ()), gpu_types, model_rows)
                if row is None or name in home_region:
                    continue
                home_region[name] = state.region
                names.append(name)
                rows.append(row)
        if len(names) >= 2 and capacities.sum() > 0:
            question = (
                tuple(names),
                tuple(home_region[name] for name in names),
                b"".join(row.tobytes() for row in rows),
                capacities.tobytes(),
            )
            answer = answers.get(question)
            if answer is None:
                answer = answers[question] = _solve_window(
                    index,
                    time,
                    names,
                    rows,
                    capacities,
                    gpu_types,
                    home_region,
                    scheduler,
                    check_properties
                    and len(names) <= property_check_max_tenants,
                )
            windows.append(replace(answer, index=index, time=float(time)))
        index += 1
        boundary += float(window_rounds) * fleet.round_duration
    return QuotaSchedule(
        scheduler=scheduler, window_rounds=window_rounds, windows=tuple(windows)
    )


def _solve_window(
    index: int,
    time: float,
    names: List[str],
    rows: List[np.ndarray],
    capacities: np.ndarray,
    gpu_types: List[str],
    home_region: Dict[str, str],
    scheduler: str,
    check: bool,
) -> QuotaWindow:
    instance = ProblemInstance(
        SpeedupMatrix(np.vstack(rows), users=names, gpu_types=gpu_types),
        capacities,
    )
    allocation = create_scheduler(scheduler).allocate(instance)
    throughputs = np.asarray(allocation.user_throughput(), dtype=float)
    total = float(throughputs.sum())
    n = len(names)
    if total <= 0:
        shares = np.full(n, 1.0 / n)
    else:
        shares = throughputs / total
    # A share of exactly 1/n maps to weight 1 (the regional default);
    # the multiplier only *re*-weights relative to equal global split.
    weights = tuple(
        (home_region[name], name, quantize_weight(shares[i] * n))
        for i, name in enumerate(names)
    )
    pareto: Optional[bool] = None
    incentive: Optional[bool] = None
    if check:
        # PE is judged inside the scheduler's registered fairness domain
        # (Theorem 5.3's "same feasible domain"): an envy-free allocation
        # is not expected to reach the unconstrained efficiency optimum.
        pareto = bool(
            check_pareto_efficiency(
                allocation, within=scheduler_info(scheduler).pe_within
            ).satisfied
        )
        incentive = bool(check_sharing_incentive(allocation).satisfied)
    return QuotaWindow(
        index=index,
        time=float(time),
        tenants=tuple(names),
        shares=tuple(float(s) for s in shares),
        weights=weights,
        checked=check,
        pareto_satisfied=pareto,
        sharing_incentive_satisfied=incentive,
    )


__all__ = [
    "DEFAULT_PROPERTY_CHECK_MAX_TENANTS",
    "QuotaSchedule",
    "QuotaWindow",
    "compute_quota_schedule",
]
