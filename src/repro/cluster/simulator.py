"""The round-based cluster simulator (the paper's testbed, §6.1).

Each scheduling round (5 minutes by default):

1. tenants active at the round start are profiled (§4.1), optionally with
   injected error (Fig. 10b) or deliberate misreports (Fig. 4b);
2. the fair-share scheduler computes fluid shares and its throughput
   estimate;
3. the deviation rounder converts fluid shares to whole GPUs (§4.3);
4. the placer binds jobs to devices, applying straggler (§4.4) and
   network-contention effects;
5. jobs advance; completions are timestamped inside the round, starved
   jobs accumulate priority for the next round.

The scheduler brings its own evaluation stack (§6.1.3): a scheduler with
``oef_stack`` set (OEF, elastic OEF) runs with the optimised placer and
the min-demand rounding rule, every other one (the baselines) with the
naive placer and plain deviation rounding.  An explicit ``placer=``
overrides the placement half (the placement ablations pass one).

The simulator substitutes the paper's 24-GPU testbed: every reported
metric (normalised throughput, JCT, straggler counts, solver overhead) is
a function of scheduling decisions, which are bit-for-bit the real
algorithms from :mod:`repro.core` and :mod:`repro.baselines`.

Dynamic workloads
-----------------
The simulator accepts a *timed event stream*: any object with a ``time``
attribute (seconds) and an ``apply(simulator, now)`` method can be passed
via the ``events`` constructor argument or :meth:`ClusterSimulator.schedule_event`.
Due events are drained at the start of each round, before capacities are
re-read and the active tenant set is computed, so an event may add or
remove tenants, inject jobs, or fail/repair devices mid-simulation.  The
concrete event vocabulary (tenant churn, job bursts, trace replay) lives
in :mod:`repro.scenarios`; the simulator only knows the protocol, which
keeps the dependency pointing from scenarios to cluster, never back.

Incremental (warm-started) rounds
---------------------------------
Sequential replay is the hot path, and most consecutive rounds pose the
scheduler the *same* question: same tenants, same measured profiles, same
capacities.  With ``config.warm_start`` (the default) the simulator
memoizes :class:`~repro.cluster.schedulers.SchedulerDecision` objects by
the scheduler's own content key
(:meth:`~repro.cluster.schedulers.FairShareScheduler.decision_key`) —
a repeat round reuses the previous solution instead of re-running the LP.
The memo is a bounded LRU ``OrderedDict`` on the simulator
(:attr:`ClusterSimulator.DECISION_CACHE_MAX` entries) holding each decision
once, with read-only arrays; a hit hands out that entry itself (its
``estimated`` dict too), so nothing is copied and a stray write raises.
Because the key covers every input the decision depends on and the
schedulers are deterministic, a warm replay is **bit-identical** to a
cold one; anything that changes the instance — tenant churn, device
failure/repair, profile drift, misreports — changes the key and solves
cold.  Shape-changing mutations additionally flush the memo outright
(:meth:`ClusterSimulator.invalidate_warm_cache`).  ``warm_stats``
reports the hit/solve split; pass ``warm_start=False`` (CLI:
``repro simulate --cold``) to disable reuse entirely.

Rounds that must pose the same question form an *active-set epoch*: its
first round computes the active-job map, ``capacities()``, the profiles,
the validated decision, the min-demand map and the placer's
:class:`~repro.cluster.placement.JobTable`; later rounds reuse them (the
decision only where the memo would hit — warm start, a key, exact
profiling — counted as a warm hit), and every round is placed and
advanced on the table.  An epoch ends when an event fires, a
mutation hook runs, a job finishes, the clock reaches the next submit,
arrival or departure time, or :meth:`run` starts.
"""

from __future__ import annotations

import heapq
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.job import Job
from repro.cluster.metrics import CompletionRecord, MetricsCollector, RoundMetrics
from repro.cluster.placement import JobTable, Placer, RoundPlacement
from repro.cluster.profiler import ProfilingAgent
from repro.cluster.rounding import DeviationRounder, RoundingQuestion
from repro.cluster.schedulers import (
    FairShareScheduler,
    SchedulerDecision,
    make_fair_share_scheduler,
)
from repro.cluster.tenant import Tenant, submit_order
from repro.cluster.topology import ClusterTopology
from repro.core.virtual import check_weight
from repro.exceptions import SimulationError, ValidationError
from repro.parallel import BackendSpec, get_backend


def _run_sweep_entry(payload: tuple) -> Any:
    """Worker entry for :meth:`ClusterSimulator.run_sweep`.

    Builds a fresh runnable from ``factory(seed)`` inside the worker, so
    no mutable simulation state is ever shared between seeds.  The
    factory may return anything with a ``run()`` method — a
    :class:`ClusterSimulator` (yielding a
    :class:`~repro.cluster.metrics.MetricsCollector`) or a
    :class:`~repro.scenarios.runner.ScenarioRunner` (yielding a
    :class:`~repro.scenarios.runner.ScenarioResult`).
    """
    factory, seed = payload
    return factory(seed).run()


@dataclass
class SimulationConfig:
    """Tunable parameters of one simulation run."""

    round_duration: float = 300.0  # seconds; the paper's 5-minute rounds
    num_rounds: int = 24
    profiling_error: float = 0.0
    profiling_seed: int = 0
    stop_when_idle: bool = True
    # tenant name -> multiplicative factors applied to its reported
    # speedups (Fig. 4b cheats by inflating entries above 1.0)
    misreports: Dict[str, np.ndarray] = field(default_factory=dict)
    # reuse the previous solution when a round poses the scheduler an
    # identical question (see "Incremental rounds" in the module docs);
    # False forces a cold LP solve every round
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.round_duration <= 0:
            raise ValidationError("round_duration must be positive")
        if self.num_rounds < 1:
            raise ValidationError("num_rounds must be >= 1")


@dataclass
class WarmStats:
    """How the warm-start engine split a run's scheduling rounds."""

    #: Rounds served from a memoized decision (no LP ran).
    warm_hits: int = 0
    #: Rounds that ran the scheduler (cold solves).
    cold_solves: int = 0
    #: Times the decision memo was flushed by a shape-changing mutation.
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.warm_hits + self.cold_solves
        return self.warm_hits / total if total else 0.0


class ClusterSimulator:
    """Drives one scheduler over one topology and tenant population."""

    #: Bound on memoized round decisions (content-keyed LRU).
    DECISION_CACHE_MAX = 64

    def __init__(
        self,
        topology: ClusterTopology,
        tenants: Sequence[Tenant],
        scheduler: "FairShareScheduler | str",
        placer: Optional[Placer] = None,
        config: Optional[SimulationConfig] = None,
        events: Optional[Sequence[Any]] = None,
        metrics: Optional[MetricsCollector] = None,
    ):
        if isinstance(scheduler, str):
            scheduler = make_fair_share_scheduler(scheduler)
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValidationError("tenant names must be unique")
        self.topology = topology
        self.tenants: Dict[str, Tenant] = {tenant.name: tenant for tenant in tenants}
        self.scheduler = scheduler
        self.placer = placer or Placer(topology, oef=scheduler.oef_stack)
        self.config = config or SimulationConfig()
        # callers may supply a pre-wired collector (streaming observer,
        # keep_rounds=False) — see MetricsCollector's docstring
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self._rounder = DeviationRounder()
        self._profiler = ProfilingAgent(
            error_rate=self.config.profiling_error, seed=self.config.profiling_seed
        )
        self._capacities = topology.capacities()
        self._recorded_completions: set = set()
        # warm-start engine: decision_key -> memoized decision, LRU order
        self._decision_cache: "OrderedDict[object, SchedulerDecision]" = OrderedDict()
        self.warm_stats = WarmStats()
        # active-set epoch: when the question can next change on its own,
        # its min-demand map, its reusable decision and the rounder's
        # question prepared from it (None: ask each round)
        self._epoch_until = -math.inf
        self._min_demands: Optional[Dict[str, int]] = None
        self._epoch_decision: Optional[SchedulerDecision] = None
        self._question: Optional[RoundingQuestion] = None
        self._table: Optional[JobTable] = None
        # timed event stream: a min-heap of (time, sequence, event) so
        # simultaneous events fire in scheduling order
        self._event_heap: List[tuple] = []
        self._event_seq = 0
        self.events_applied = 0
        for event in events or ():
            self.schedule_event(event)

    # -- dynamic-workload hooks ------------------------------------------------
    def schedule_event(self, event: Any) -> None:
        """Queue a timed event (``.time`` seconds, ``.apply(simulator, now)``).

        Events fire at the start of the first round whose start time is
        ``>= event.time``; events scheduled mid-run for a time that has
        already passed fire at the next round boundary.  An event due
        after the *final* round's start can never fire — :meth:`run`
        finishes with a :class:`RuntimeWarning` naming how many such
        events were left unapplied (scenario builders clamp their
        event times to the horizon to avoid this).
        """
        time = float(event.time)
        if not 0 <= time < math.inf:
            raise ValidationError(f"event time must be finite and >= 0, got {time}")
        heapq.heappush(self._event_heap, (time, self._event_seq, event))
        self._event_seq += 1

    def pending_events(self) -> int:
        """Number of events still waiting to fire."""
        return len(self._event_heap)

    def add_tenant(self, tenant: Tenant) -> None:
        """Admit a new tenant mid-simulation (scenario tenant churn)."""
        if tenant.name in self.tenants:
            raise ValidationError(
                f"tenant {tenant.name!r} already exists; tenant names must "
                "stay unique for the whole simulation"
            )
        self.tenants[tenant.name] = tenant
        self.invalidate_warm_cache()

    def remove_tenant(self, name: str, now: float) -> None:
        """Force a tenant's departure at ``now`` (unfinished jobs are dropped)."""
        try:
            tenant = self.tenants[name]
        except KeyError:
            raise ValidationError(f"unknown tenant {name!r}") from None
        if tenant.departure_time is None or tenant.departure_time > now:
            tenant.departure_time = now
        self._rounder.forget(name)
        self.invalidate_warm_cache()

    def fail_devices(self, device_ids: Sequence[int]) -> None:
        """Fail devices mid-simulation; flushes the warm-start memo."""
        self.topology.fail_devices(list(device_ids))
        self.invalidate_warm_cache()

    def repair_devices(self, device_ids: Sequence[int]) -> None:
        """Repair devices mid-simulation; flushes the warm-start memo."""
        self.topology.repair_devices(list(device_ids))
        self.invalidate_warm_cache()

    def invalidate_warm_cache(self) -> None:
        """Drop every memoized decision (shape-changing mutation fallback).

        Correctness never depends on this — the content keys already
        force a cold solve whenever any scheduler input changed — but
        shape changes (tenant churn, device failure/repair) make the old
        entries unreachable dead weight, so the mutation hooks flush
        them eagerly.  It also ends the epoch, whose reused decision is a memo entry.
        """
        self._epoch_until = -math.inf
        if self._decision_cache:
            self._decision_cache.clear()
            self.warm_stats.invalidations += 1

    def set_tenant_weight(self, name: str, weight: float) -> None:
        """Re-weight a tenant mid-simulation (fleet quota rebalance).

        The scheduler's decision key covers tenant weights, so a weight
        change already forces a cold solve; the explicit memo flush just
        drops the now-unreachable entries eagerly, like the other
        mutation hooks.  Weights must stay positive and finite (the
        :class:`~repro.cluster.tenant.Tenant` invariant).
        """
        check_weight(name, weight)
        try:
            tenant = self.tenants[name]
        except KeyError:
            raise ValidationError(f"unknown tenant {name!r}") from None
        if tenant.weight != float(weight):
            tenant.weight = float(weight)
            self.invalidate_warm_cache()

    def add_job(self, tenant_name: str, job: Job) -> None:
        """Submit one more job to an existing tenant (demand spike)."""
        try:
            tenant = self.tenants[tenant_name]
        except KeyError:
            raise ValidationError(f"unknown tenant {tenant_name!r}") from None
        tenant.add_job(job)
        self._epoch_until = -math.inf

    def _drain_events(self, now: float) -> int:
        """Apply every event due at or before ``now``; returns the count."""
        fired = 0
        while self._event_heap and self._event_heap[0][0] <= now:
            _, _, event = heapq.heappop(self._event_heap)
            event.apply(self, now)
            fired += 1
            self._epoch_until = -math.inf
        self.events_applied += fired
        return fired

    # -- Monte-Carlo sweeps ----------------------------------------------------
    @staticmethod
    def run_sweep(
        factory: Callable[[int], "ClusterSimulator"],
        seeds: Sequence[int],
        *,
        backend: BackendSpec = "auto",
        max_workers: Optional[int] = None,
    ) -> List[Any]:
        """Run ``factory(seed).run()`` for every seed, fanned out to workers.

        ``factory`` builds one fresh, independent runnable per seed —
        usually a simulator (topology, tenants, scheduler, config), but
        any object with a ``run()`` method works, so scenario sweeps pass
        a :class:`~repro.scenarios.runner.ScenarioRunner` factory (see
        :func:`repro.scenarios.scenario_sweep`).  It must be a
        module-level callable (or :func:`functools.partial` of one) for
        the process backend, and the sweep degrades to threads with a
        :class:`RuntimeWarning` when it is not picklable.  Results come
        back in seed order, one ``factory(seed).run()`` value each —
        :class:`~repro.cluster.metrics.MetricsCollector` for simulators,
        :class:`~repro.scenarios.runner.ScenarioResult` for scenario
        runners.
        """
        payloads = [(factory, int(seed)) for seed in seeds]
        resolved = get_backend(
            backend, max_workers, task_count=len(payloads), payload=payloads
        )
        return resolved.map(_run_sweep_entry, payloads)

    # -- main loop -------------------------------------------------------------
    def run(self) -> MetricsCollector:
        # events drain at round starts, so nothing after the final round's
        # start can ever fire: such events must neither hold the idle-stop
        # hostage nor vanish silently
        final_start = (self.config.num_rounds - 1) * self.config.round_duration
        self._epoch_until = -math.inf
        for round_index in range(self.config.num_rounds):
            now = round_index * self.config.round_duration
            # dynamic events may mutate tenants *and* topology, so they
            # drain before capacities and the active set are computed
            self._drain_events(now)
            if now >= self._epoch_until:  # a new epoch: re-ask the question
                self._capacities = self.topology.capacities()
                active_jobs = self._active_jobs(now)
                # the placer's queues: a sort of its own, so the map the
                # profiles and the decision key read keeps its job order
                queues = {
                    name: submit_order(jobs) for name, jobs in active_jobs.items()
                }
                self._epoch_decision = self._min_demands = self._question = None
                self._table = JobTable(self.placer, queues) if queues else None
                if self.scheduler.oef_stack:
                    self._min_demands = {
                        name: self.tenants[name].min_worker_demand(now, jobs)
                        for name, jobs in active_jobs.items()
                    }
            if not active_jobs:
                fireable = (
                    self._event_heap and self._event_heap[0][0] <= final_start
                )
                if (
                    self.config.stop_when_idle
                    and self._all_work_done(now)
                    and not fireable
                ):
                    break
                self.metrics.record_round(RoundMetrics(round_index, now))
                continue
            self._run_round(round_index, now, active_jobs)
        if self._event_heap:
            warnings.warn(
                f"{len(self._event_heap)} scheduled event(s) fall after the "
                f"final round start (t={final_start:g}s) and were never "
                "applied; extend num_rounds or move the events earlier",
                RuntimeWarning,
                stacklevel=2,
            )
        return self.metrics

    def _run_round(
        self, round_index: int, now: float, active_jobs: Dict[str, List[Job]]
    ) -> None:
        """One round, given its epoch's :meth:`_active_jobs` map.

        The map, the min-demand map and the job table hold for the whole
        epoch: nothing is submitted inside it, and a finished job ends it
        in the advance pass.
        """
        decision = self._epoch_decision
        if decision is not None:
            self.warm_stats.warm_hits += 1
        else:
            active = [self.tenants[name] for name in active_jobs]
            profiles = self._measure_profiles(now, active_jobs)
            decision = self._compute_decision(active, profiles, active_jobs)
            self._validate_decision(decision, active)
        question = self._question
        if question is None:
            question = self._rounder.prepare(
                decision.tenant_shares, self._capacities, self._min_demands
            )
            if self._epoch_decision is not None:  # one question all epoch
                self._question = question
        rounding = self._rounder.round_shares(question)
        placement = self.placer.place_round(
            rounding, self.tenants, now, table=self._table
        )
        self._advance(round_index, now, placement, decision)

    def _advance(
        self,
        round_index: int,
        now: float,
        placement: RoundPlacement,
        decision: SchedulerDecision,
    ) -> None:
        """Run the placed jobs for one round, starve the rest, record the round.

        The job table the round was placed on runs it
        (:meth:`~repro.cluster.placement.JobTable.advance`); a finished job
        ends the epoch.
        """
        placed = placement.table_round
        actual, actual_by_model, finished = placement.table.advance(
            placed, now, self.config.round_duration
        )
        recorded = self._recorded_completions
        for job in finished:
            if job.job_id not in recorded:
                recorded.add(job.job_id)
                self.metrics.record_completion(
                    CompletionRecord(
                        job_id=job.job_id,
                        tenant=job.tenant,
                        model_name=job.model_name,
                        submit_time=job.submit_time,
                        finish_time=float(job.finish_time),
                    )
                )
        if finished:
            self._epoch_until = -math.inf
        self.metrics.record_round(
            RoundMetrics(
                round_index=round_index,
                time=now,
                estimated=decision.estimated,
                actual=actual,
                actual_by_model=actual_by_model,
                straggler_workers=sum(placed.stragglers),
                cross_host_jobs=(
                    0
                    if placed.network_factors is None
                    else sum(spanned > 1 for spanned in placed.hosts)
                ),
                cross_type_jobs=placed.mixed,
                starved_jobs=len(placed.starved),
                devices_used=sum(placed.workers),
                solver_seconds=decision.solver_seconds,
            )
        )

    def _compute_decision(
        self,
        active: List[Tenant],
        profiles: Dict[str, Dict[str, np.ndarray]],
        active_jobs: Dict[str, List[Job]],
    ) -> SchedulerDecision:
        """One round's fluid shares, warm-started when provably safe.

        Prior decisions are memoized under the scheduler's own content
        key; a repeat key short-circuits the solve with the stored,
        read-only decision itself (``solver_seconds`` 0.0 — no LP ran).
        A ``None`` key — warm starting disabled, or a scheduler whose
        decision depends on more than the key can cover — always solves
        cold and memoizes nothing.  With exact profiles the round's memo
        entry (``None`` without a key) becomes the epoch's decision.
        """
        question = (active, profiles, self._capacities)
        key = None
        if self.config.warm_start:
            key = self.scheduler.decision_key(*question, active_jobs=active_jobs)
        memo = self._decision_cache
        entry = None if key is None else memo.get(key)
        if entry is not None:
            memo.move_to_end(key)
            self.warm_stats.warm_hits += 1
            decision = entry
        else:
            self.warm_stats.cold_solves += 1
            decision = self.scheduler.shares(*question, active_jobs=active_jobs)
            if key is not None:
                # the shares are read-only (a keyed scheduler's contract): shared, not copied
                memo[key] = entry = replace(decision, solver_seconds=0.0)
                if len(memo) > self.DECISION_CACHE_MAX:
                    memo.popitem(last=False)
        if self._profiler.error_rate == 0:
            # exact profiles: the rest of the epoch asks this same question
            self._epoch_decision = entry
        return decision

    # -- helpers ------------------------------------------------------------------
    def _active_jobs(self, now: float) -> Dict[str, List[Job]]:
        """Tenants with work at ``now`` (by name) and each one's active jobs.

        The same pass sets the epoch's end: the earliest future arrival,
        departure or job submit, where the map next changes on its own.
        """
        until = math.inf
        active_jobs: Dict[str, List[Job]] = {}
        for tenant in self.tenants.values():
            if tenant.departure_time is not None:
                if now >= tenant.departure_time:
                    self._rounder.forget(tenant.name)
                    continue
                until = min(until, tenant.departure_time)
            if tenant.arrival_time > now:
                until = min(until, tenant.arrival_time)
                continue
            queued = tenant.active_jobs()
            jobs = [job for job in queued if job.submit_time <= now]
            if len(jobs) < len(queued):
                later = [job.submit_time for job in queued if job.submit_time > now]
                until = min(until, *later)
            if jobs:
                active_jobs[tenant.name] = jobs
            else:
                self._rounder.forget(tenant.name)
        self._epoch_until = until
        return active_jobs

    def _all_work_done(self, now: float) -> bool:
        for tenant in self.tenants.values():
            if tenant.departure_time is not None and now >= tenant.departure_time:
                continue
            if not tenant.all_done(now):
                return False
        return True

    def _measure_profiles(
        self, now: float, active_jobs: Dict[str, List[Job]]
    ) -> Dict[str, Dict[str, np.ndarray]]:
        profiles: Dict[str, Dict[str, np.ndarray]] = {}
        profile_tenant = self._profiler.profile_tenant
        misreports = self.config.misreports
        for name, jobs in active_jobs.items():
            measured = profile_tenant(self.tenants[name], now, jobs)
            factors = misreports.get(name)
            if factors is not None:
                factors = np.asarray(factors, dtype=float)
                lied: Dict[str, np.ndarray] = {}
                for model_name, vector in measured.items():
                    fake = vector * factors
                    fake = fake / fake[0]
                    lied[model_name] = np.maximum.accumulate(fake)
                measured = lied
            profiles[name] = measured
        return profiles

    @staticmethod
    def _validate_decision(
        decision: SchedulerDecision, active: List[Tenant]
    ) -> None:
        missing = {tenant.name for tenant in active} - set(decision.tenant_shares)
        if missing:
            raise SimulationError(
                f"scheduler returned no share for tenants: {sorted(missing)}"
            )
