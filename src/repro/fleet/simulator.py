"""The fleet simulator: N regional replays under one global fair share.

:class:`FleetSimulator` shards a :class:`~repro.fleet.scenario.FleetScenario`
into per-region :class:`~repro.scenarios.runner.ScenarioRunner` tasks and
fans them out on the existing execution backends
(:mod:`repro.parallel`) — the regional unit is the unchanged
single-cluster simulator, and regions are embarrassingly parallel
because the quota rebalancer (:mod:`repro.fleet.rebalance`) is a pure
pre-pass: the parent computes the whole weight timeline once and ships
it to workers as plain event data.  On a process backend the regions
run on the shared warm executor of :mod:`repro.parallel`, which later
runs in the same interpreter reuse.

Memory contract: a region's :class:`ScenarioRunner` keeps no rounds; it
streams every distilled round into the shared
``repro/fleetmetrics-v1`` JSONL file, so the parent holds one
:class:`RegionSummary` per region, with the ``(round, total_throughput,
jain)`` scalars of each round it wrote — O(regions × rounds) floats,
never a round record and never O(rounds × tenants).  The window summary
reads those scalars; the JSONL stream stays the durable record.

Each region worker builds its own region, and only that one, from the
recipe (:func:`~repro.fleet.scenario.build_fleet_region`); the parent
materialises the whole fleet once per run, for the pre-pass and the
region configs.

Determinism contract: the fleet fingerprint folds each region's
streaming result fingerprint in *sorted region order*, so serial,
thread and process runs of the same recipe are bit-identical — the
fleet analogue of the sweep-level guarantee the scenario tests pin.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SimulationError, ValidationError
from repro.fleet.metrics import FleetMetricsWriter, aggregate_stream
from repro.fleet.rebalance import QuotaSchedule, compute_quota_schedule
from repro.fleet.scenario import FleetScenario, FleetScript, region_scenario
from repro.parallel import BackendSpec, get_backend
from repro.scenarios.runner import ScenarioRunner
from repro.solver import FORM_CACHE


@dataclass(frozen=True)
class _RegionTask:
    """One picklable unit of fleet work: a region recipe plus sink config."""

    region: str
    scenario: object  # the region's Scenario adapter
    scheduler: str
    config_overrides: Tuple[Tuple[str, object], ...]
    metrics_path: Optional[str]
    fleet: str
    seed: int
    flush_every: int


@dataclass(frozen=True)
class RegionSummary:
    """What survives of a region replay after its rounds were streamed out."""

    region: str
    fingerprint: str
    rounds: int
    events: int
    completed_jobs: int
    mean_utilization: float
    mean_jain: float
    mean_envy: float
    mean_throughput: float
    starved_jobs: int
    wall_seconds: float
    #: ``(round, total_throughput, jain)`` of each streamed round, as written
    rows: Tuple[Tuple[int, float, float], ...] = ()

    def as_row(self) -> Dict[str, object]:
        return {
            "region": self.region,
            "rounds": self.rounds,
            "events": self.events,
            "jobs done": self.completed_jobs,
            "utilization": round(self.mean_utilization, 4),
            "jain": round(self.mean_jain, 4),
            "starved": self.starved_jobs,
            "wall (s)": round(self.wall_seconds, 3),
        }


def _region_runner(task: _RegionTask) -> ScenarioRunner:
    """The replay of one region, streaming into the metrics file."""
    sink = None
    if task.metrics_path:
        sink = FleetMetricsWriter(
            task.metrics_path,
            fleet=task.fleet,
            region=task.region,
            seed=task.seed,
            scheduler=task.scheduler,
            flush_every=task.flush_every,
        )
    return ScenarioRunner(
        task.scenario,  # type: ignore[arg-type]
        scheduler=task.scheduler,
        config_overrides=dict(task.config_overrides),
        round_sink=sink,
    )


def _run_region(task: _RegionTask) -> RegionSummary:
    """Module-level worker entry: replay one region, stream its rounds."""
    runner = _region_runner(task)
    started = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - started
    sink = runner.round_sink
    return RegionSummary(
        region=task.region,
        fingerprint=result.fingerprint(),
        rounds=result.num_rounds,
        events=result.num_events,
        completed_jobs=result.completed_jobs,
        mean_utilization=result.mean_utilization,
        mean_jain=result.mean_jain,
        mean_envy=result.mean_envy,
        mean_throughput=result.aggregates.mean_throughput,
        starved_jobs=result.aggregates.starved_jobs,
        wall_seconds=wall,
        rows=tuple(sink.rows) if sink is not None else (),
    )


def _run_cold_region(task: _RegionTask) -> RegionSummary:
    """Process-path entry: every region starts on an empty compiled-form
    cache, as on a fresh fork of a cleared parent, however warm the
    worker is."""
    FORM_CACHE.clear()
    return _run_region(task)


@dataclass
class FleetResult:
    """One fleet replay: region summaries plus the global quota audit."""

    fleet: str
    scheduler: str
    seed: int
    num_regions: int
    regions: List[RegionSummary]
    quota: QuotaSchedule
    metrics_path: Optional[str]
    backend: str
    wall_seconds: float
    #: the part of ``wall_seconds`` spent in the quota pre-pass
    rebalance_seconds: float = 0.0
    #: the part of ``wall_seconds`` spent in the region map
    fanout_seconds: float = 0.0

    @property
    def fairness_violations(self) -> int:
        """Rebalance windows whose *checked* global allocation failed PE/SI."""
        return self.quota.violations

    @property
    def completed_jobs(self) -> int:
        return sum(region.completed_jobs for region in self.regions)

    @property
    def total_rounds(self) -> int:
        return sum(region.rounds for region in self.regions)

    def fingerprint(self) -> str:
        """SHA-256 over region fingerprints in sorted region order.

        Same contract as scenario fingerprints: identical across
        serial/thread/process backends; compare two runs, never pin the
        literal value.
        """
        digest = hashlib.sha256()
        digest.update(
            repr(
                (self.fleet, self.scheduler, self.seed, self.num_regions)
            ).encode()
        )
        for region in sorted(self.regions, key=lambda r: r.region):
            digest.update(repr((region.region, region.fingerprint)).encode())
        return digest.hexdigest()

    def window_summary(self, window_rounds: int = 6) -> List[Dict[str, object]]:
        """Per-window aggregates of this run's streamed rounds (empty if
        unsunk), from the rows its regions wrote rather than the file: in
        the stream reader's ``(region, round)`` order (a region writes in
        round order), so equal to ``aggregate_stream(metrics_path)`` over
        a stream holding this run alone."""
        if not self.metrics_path:
            return []
        ordered = sorted(self.regions, key=lambda summary: summary.region)
        return aggregate_stream(
            ((summary.region, *row) for summary in ordered for row in summary.rows),
            window_rounds,
        )


class FleetSimulator:
    """Run one fleet recipe end to end: rebalance, fan out, summarise."""

    def __init__(
        self,
        fleet: FleetScenario,
        scheduler: str = "oef-coop",
        *,
        backend: BackendSpec = "auto",
        max_workers: Optional[int] = None,
        rebalance: bool = True,
        window_rounds: int = 6,
        check_properties: bool = True,
        metrics_path: Optional[str] = None,
        flush_every: int = 64,
    ):
        if not isinstance(fleet, FleetScenario):
            raise ValidationError(
                "FleetSimulator needs a FleetScenario; wrap single-cluster "
                "scenarios with repro.fleet.library.sharded_fleet"
            )
        if window_rounds < 1:
            raise ValidationError("window_rounds must be >= 1")
        self.fleet = fleet
        self.scheduler = scheduler
        self.backend = backend
        self.max_workers = max_workers
        self.rebalance = bool(rebalance)
        self.window_rounds = int(window_rounds)
        self.check_properties = bool(check_properties)
        self.metrics_path = metrics_path
        self.flush_every = int(flush_every)

    def _quota(self, script: FleetScript) -> QuotaSchedule:
        if not self.rebalance:
            return QuotaSchedule(
                scheduler=self.scheduler, window_rounds=self.window_rounds
            )
        return compute_quota_schedule(
            self.fleet,
            scheduler=self.scheduler,
            window_rounds=self.window_rounds,
            check_properties=self.check_properties,
            script=script,
        )

    def _tasks(self, script: FleetScript, quota: QuotaSchedule) -> List[_RegionTask]:
        return [
            _RegionTask(
                region=region.name,
                scenario=region_scenario(
                    self.fleet, index, region.name, quota.for_region(region.name)
                ),
                scheduler=self.scheduler,
                config_overrides=region.config_overrides,
                metrics_path=self.metrics_path,
                fleet=self.fleet.name,
                seed=self.fleet.seed,
                flush_every=self.flush_every,
            )
            for index, region in enumerate(script.regions)
        ]

    def run(self) -> FleetResult:
        started = time.perf_counter()
        # materialised once for both readers: the pre-pass copies the event
        # lists it consumes and never mutates a tenant; tasks carry recipes
        script = self.fleet.materialize()
        rebalance_started = time.perf_counter()
        quota = self._quota(script)
        rebalance_seconds = time.perf_counter() - rebalance_started
        tasks = self._tasks(script, quota)
        resolved = get_backend(
            self.backend, self.max_workers, task_count=len(tasks), payload=tasks
        )
        run = _run_cold_region if resolved.name == "process" else _run_region
        fanout_started = time.perf_counter()
        try:
            summaries = resolved.map(run, tasks)
        except BrokenProcessPool as exc:
            raise SimulationError("a region worker died mid-run; pool discarded") from exc
        fanout_seconds = time.perf_counter() - fanout_started
        return FleetResult(
            fleet=self.fleet.name,
            scheduler=self.scheduler,
            seed=self.fleet.seed,
            num_regions=self.fleet.num_regions,
            regions=list(summaries),
            quota=quota,
            metrics_path=self.metrics_path,
            backend=resolved.name,
            wall_seconds=time.perf_counter() - started,
            rebalance_seconds=rebalance_seconds,
            fanout_seconds=fanout_seconds,
        )


__all__ = [
    "FleetResult",
    "FleetSimulator",
    "RegionSummary",
]
