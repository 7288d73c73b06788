"""ScenarioRunner: drive one scenario through the cluster simulator.

The runner materialises a :class:`~repro.scenarios.scenario.Scenario`
recipe, builds a :class:`~repro.cluster.simulator.ClusterSimulator`
with the scenario's event stream attached, runs it, and distils the raw
:class:`~repro.cluster.metrics.MetricsCollector` into a
:class:`ScenarioResult`: per-round records (throughput, utilisation,
Jain fairness, an envy proxy, starvation) plus the aggregate summary row
the CLI, the scenario-comparison experiment, and
``experiments/report.py`` consume.

Scheduler/placement pairing follows the paper's evaluation setup
(§6.1.3): OEF evaluators run with the optimised placer and the
min-demand rounding rule; baselines run with the naive placer and plain
deviation rounding.  That keeps ``ScenarioRunner(scenario, s).run()``
an apples-to-apples replay of the same event stream under scheduler
``s``.

Multi-seed sweeps ride the PR 2 parallel backends unchanged:
:func:`scenario_sweep` hands :meth:`ClusterSimulator.run_sweep` a
picklable runner factory, so ``backend="process"`` fans whole scenario
replays out across cores and the per-seed results come back in seed
order.  Determinism contract: for a fixed (scenario, seed, scheduler),
the summary row is identical on every backend.

Warm-started replay (``warm=True``, the default) threads each round's
solution into the next through the simulator's decision memo — a
bounded LRU keyed by the scheduler's own content key (see
:mod:`repro.cluster.simulator`) — cutting repeat-round LP cost to zero
while staying **bit-identical** to a cold replay — compare
:meth:`ScenarioResult.fingerprint` across ``warm``/``cold`` runs or
execution backends to check.  ``warm=False`` (CLI: ``--cold``) forces
every round to solve from scratch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.metrics import MetricsCollector, RoundMetrics
from repro.cluster.placement import Placer, PlacementPolicy
from repro.cluster.schedulers import make_fair_share_scheduler
from repro.cluster.simulator import ClusterSimulator
from repro.core.analysis import jain_index
from repro.exceptions import ValidationError
from repro.parallel import BackendSpec
from repro.registry import REGISTRY
from repro.scenarios.library import make_scenario
from repro.scenarios.scenario import Scenario, ScenarioScript


@dataclass(frozen=True)
class ScenarioRoundRecord:
    """One round's distilled scenario metrics."""

    round_index: int
    time: float
    active_tenants: int
    total_throughput: float
    #: Devices granted this round / devices in the cluster at t=0.
    utilization: float
    #: Jain's fairness index over active tenants' delivered throughput.
    jain: float
    #: Worst-case weighted-throughput shortfall in [0, 1]:
    #: ``(max_i T_i/w_i - min_i T_i/w_i) / max_i T_i/w_i`` over active
    #: tenants.  0 = perfectly envy-free in the weighted sense; 1 = some
    #: active tenant got nothing while another ran.
    envy: float
    starved_jobs: int


@dataclass
class ScenarioAggregates:
    """Running aggregate stats, maintained one round at a time.

    This is the O(1)-memory companion of the per-round record list: the
    runner feeds it every distilled record as it happens, so summary
    rows stay available even when ``record_rounds=False`` drops the
    records themselves.  Means are over *active* rounds (rounds with at
    least one scheduled tenant), matching the historical record-based
    aggregation.
    """

    rounds: int = 0
    active_rounds: int = 0
    utilization_sum: float = 0.0
    jain_sum: float = 0.0
    envy_sum: float = 0.0
    throughput_sum: float = 0.0
    starved_jobs: int = 0

    def observe(self, record: "ScenarioRoundRecord") -> None:
        self.rounds += 1
        self.starved_jobs += record.starved_jobs
        if record.active_tenants:
            self.active_rounds += 1
            self.utilization_sum += record.utilization
            self.jain_sum += record.jain
            self.envy_sum += record.envy
            self.throughput_sum += record.total_throughput

    @property
    def mean_utilization(self) -> float:
        return (
            self.utilization_sum / self.active_rounds
            if self.active_rounds
            else 0.0
        )

    @property
    def mean_jain(self) -> float:
        return (
            self.jain_sum / self.active_rounds if self.active_rounds else 1.0
        )

    @property
    def mean_envy(self) -> float:
        return (
            self.envy_sum / self.active_rounds if self.active_rounds else 0.0
        )

    @property
    def mean_throughput(self) -> float:
        return (
            self.throughput_sum / self.active_rounds
            if self.active_rounds
            else 0.0
        )


class _FingerprintStream:
    """Incremental SHA-256 over one replay's scheduling outcomes.

    Byte order is per-round interleaved — (distilled record, scheduler
    estimates, delivered actuals) as each round lands — then every
    completion, then the run header.  The header goes *last* because
    its round/event counts are only known once the run ends; the order
    is fixed and deterministic, which is all the fingerprint contract
    needs (fingerprints are compared between runs, never parsed).
    """

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        # rounds answered by one memo entry share its ``estimated`` dict
        self._estimated: tuple = (None, b"")

    def observe_round(
        self, record: "ScenarioRoundRecord", round_metrics: RoundMetrics
    ) -> None:
        self._digest.update(
            repr(
                (
                    record.round_index,
                    record.time,
                    record.active_tenants,
                    record.total_throughput,
                    record.utilization,
                    record.jain,
                    record.envy,
                    record.starved_jobs,
                )
            ).encode()
        )
        estimated = round_metrics.estimated
        if estimated is not self._estimated[0]:
            self._estimated = (estimated, repr(sorted(estimated.items())).encode())
        self._digest.update(self._estimated[1])
        self._digest.update(repr(sorted(round_metrics.actual.items())).encode())

    def finalize(self, completions, header: tuple) -> str:
        for completion in completions:
            self._digest.update(
                repr(
                    (
                        completion.job_id,
                        completion.tenant,
                        completion.model_name,
                        completion.submit_time,
                        completion.finish_time,
                    )
                ).encode()
            )
        self._digest.update(repr(header).encode())
        return self._digest.hexdigest()


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, aggregates included."""

    scenario_name: str
    scheduler: str
    seed: int
    num_rounds: int
    num_events: int
    metrics: MetricsCollector
    records: List[ScenarioRoundRecord] = field(default_factory=list)
    #: Warm-start engine split for this run (0/0 under ``warm=False``
    #: never-cached schedulers).  Excluded from :meth:`summary_row` and
    #: :meth:`fingerprint` so warm and cold replays stay comparable.
    #: (``warm_hits`` counts decision-memo hits; bench/worker.py reads the name.)
    warm_hits: int = 0
    cold_solves: int = 0
    #: Running aggregates maintained during the replay; the summary
    #: properties read these, so they survive ``record_rounds=False``.
    aggregates: Optional[ScenarioAggregates] = None
    #: Fingerprint precomputed incrementally during the run (sink mode
    #: has nothing to recompute it from).  ``None`` on hand-built
    #: results; :meth:`fingerprint` then derives it from the stored
    #: records and metrics.
    digest: Optional[str] = None

    # -- aggregates -----------------------------------------------------------
    @property
    def completed_jobs(self) -> int:
        return len(self.metrics.completions)

    @property
    def mean_jct(self) -> float:
        return self.metrics.mean_jct()

    @property
    def makespan(self) -> float:
        return self.metrics.makespan()

    @property
    def mean_utilization(self) -> float:
        if self.aggregates is not None:
            return self.aggregates.mean_utilization
        values = [r.utilization for r in self.records if r.active_tenants]
        return float(np.mean(values)) if values else 0.0

    @property
    def mean_jain(self) -> float:
        if self.aggregates is not None:
            return self.aggregates.mean_jain
        values = [r.jain for r in self.records if r.active_tenants]
        return float(np.mean(values)) if values else 1.0

    @property
    def mean_envy(self) -> float:
        if self.aggregates is not None:
            return self.aggregates.mean_envy
        values = [r.envy for r in self.records if r.active_tenants]
        return float(np.mean(values)) if values else 0.0

    @property
    def total_starvation(self) -> int:
        if self.aggregates is not None:
            return self.aggregates.starved_jobs
        return sum(r.starved_jobs for r in self.records)

    def fingerprint(self) -> str:
        """SHA-256 over every scheduling outcome: the differential probe.

        Covers each round's distilled record, the scheduler's own
        per-round throughput estimates, the delivered actuals, and every
        completion — at full float precision (``repr``), so two runs
        share a fingerprint only when their decisions were
        *bit-identical*.  Wall-clock artefacts (``solver_seconds``) and
        warm-start telemetry are excluded.

        The contract: for a fixed (scenario, seed, scheduler), the
        fingerprint is identical across warm/cold replays,
        serial/thread/process sweeps, **and** record-keeping modes — a
        ``record_rounds=False`` streaming run hashes each round as it
        happens and must agree with a record-keeping replay of the same
        recipe.  Fingerprints are only ever *compared* between runs,
        never parsed or pinned as constants.
        """
        if self.digest is not None:
            return self.digest
        stream = _FingerprintStream()
        for record, round_metrics in zip(self.records, self.metrics.rounds):
            stream.observe_round(record, round_metrics)
        return stream.finalize(
            self.metrics.completions,
            (
                self.scenario_name,
                self.scheduler,
                self.seed,
                self.num_rounds,
                self.num_events,
            ),
        )

    def summary_row(self) -> Dict[str, object]:
        """One comparison-table row; also the determinism probe for sweeps."""
        return {
            "scenario": self.scenario_name,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "rounds": self.num_rounds,
            "events": self.num_events,
            "jobs done": self.completed_jobs,
            "mean JCT (h)": self.mean_jct / 3600.0,
            "utilization": self.mean_utilization,
            "jain": self.mean_jain,
            "envy": self.mean_envy,
            "starvation": self.total_starvation,
        }

    def to_experiment_result(self):
        """This run as an :class:`~repro.experiments.common.ExperimentResult`.

        Lazily imported so ``repro.scenarios`` never drags the whole
        experiments package (which itself imports scenarios for the
        comparison experiment) into its import graph.  Sink-mode runs
        (``record_rounds=False``) keep the summary row but their series
        are empty — the per-round data went to the sink.
        """
        from repro.experiments.common import ExperimentResult

        return ExperimentResult(
            experiment=f"scenario {self.scenario_name} / {self.scheduler}",
            rows=[self.summary_row()],
            series={
                "total_throughput": [
                    r.total_throughput for r in self.records
                ],
                "utilization": [r.utilization for r in self.records],
                "jain": [r.jain for r in self.records],
            },
        )


def _weighted_envy(throughputs: Sequence[float], weights: Sequence[float]) -> float:
    """Normalised spread of weighted throughput: 0 = envy-free proxy holds."""
    weighted = [t / w for t, w in zip(throughputs, weights)]
    top = max(weighted, default=0.0)
    if top <= 0.0:
        return 0.0
    return (top - min(weighted)) / top


def distill_round(
    round_metrics: RoundMetrics,
    weights: Dict[str, float],
    total_devices: int,
) -> ScenarioRoundRecord:
    """One raw :class:`RoundMetrics` → one distilled scenario record."""
    active = sorted(round_metrics.estimated)
    throughputs = [
        float(round_metrics.actual.get(name, 0.0)) for name in active
    ]
    return ScenarioRoundRecord(
        round_index=round_metrics.round_index,
        time=round_metrics.time,
        active_tenants=len(active),
        total_throughput=float(sum(throughputs)),
        utilization=(
            round_metrics.devices_used / total_devices if total_devices else 0.0
        ),
        jain=jain_index(throughputs) if active else 1.0,
        envy=_weighted_envy(
            throughputs, [weights.get(name, 1.0) for name in active]
        ),
        starved_jobs=round_metrics.starved_jobs,
    )


class ScenarioRunner:
    """Replays one scenario recipe under one scheduler.

    ``scheduler`` is any registry name or alias (``"oef-coop"``,
    ``"cooperative"``, ``"gavel"``, ...) or an elastic mode name
    understood by
    :func:`~repro.cluster.schedulers.make_fair_share_scheduler`.  Every
    ``run()`` call re-materialises the recipe, so one runner can be run
    repeatedly — and two runners replaying the same recipe under
    different schedulers see byte-identical event streams.
    """

    def __init__(
        self,
        scenario: Union[Scenario, str],
        scheduler: str = "oef-coop",
        *,
        scheduler_options: Optional[Dict[str, object]] = None,
        config_overrides: Optional[Dict[str, object]] = None,
        warm: bool = True,
        record_rounds: bool = True,
        round_sink: Optional[Callable[[ScenarioRoundRecord], None]] = None,
    ):
        if isinstance(scenario, str):
            scenario = make_scenario(scenario)
        self.scenario = scenario
        self.scheduler = scheduler
        self.scheduler_options = dict(scheduler_options or {})
        self.config_overrides = dict(config_overrides or {})
        self.warm = bool(warm)
        #: ``False`` = sink mode: per-round records are distilled,
        #: streamed to ``round_sink`` (if any) and then dropped, so a
        #: long replay's memory is O(1) in rounds while summary rows and
        #: the fingerprint stay available (see
        #: :meth:`ScenarioResult.fingerprint` for the contract).
        self.record_rounds = bool(record_rounds)
        #: Optional callable fed every distilled
        #: :class:`ScenarioRoundRecord` as it happens (any record mode);
        #: if it has a ``close()`` method the runner calls it after the
        #: replay (also when it raises), so buffering sinks can flush.
        self.round_sink = round_sink

    # -- construction ---------------------------------------------------------
    def _is_oef(self) -> bool:
        """OEF stacks get the optimised placer + min-demand rule (§6.1.3)."""
        name = self.scheduler
        if name in REGISTRY:
            name = REGISTRY.resolve(name)
        return name.startswith("oef") or name in ("cooperative", "noncooperative")

    def build_simulator(
        self,
        script: Optional[ScenarioScript] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> ClusterSimulator:
        """A fresh, event-loaded simulator for one replay of the recipe."""
        script = script if script is not None else self.scenario.materialize()
        oef = self._is_oef()
        scheduler = make_fair_share_scheduler(
            self.scheduler, **self.scheduler_options
        )
        placer = Placer(
            script.topology,
            policy=PlacementPolicy.oef() if oef else PlacementPolicy.naive(),
        )
        overrides = {
            "use_min_demand_rule": oef,
            "warm_start": self.warm,
            **self.config_overrides,
        }
        return ClusterSimulator(
            script.topology,
            list(script.initial_tenants),
            scheduler,
            placer=placer,
            config=self.scenario.simulation_config(overrides),
            events=script.events,
            metrics=metrics,
        )

    # -- execution ------------------------------------------------------------
    def run(self, script: Optional[ScenarioScript] = None) -> ScenarioResult:
        script = script if script is not None else self.scenario.materialize()
        weights = {t.name: t.weight for t in script.initial_tenants}
        for event in script.events:
            tenant = getattr(event, "tenant", None)
            if tenant is not None:
                weights[tenant.name] = tenant.weight
        total_devices = script.topology.num_devices

        records: List[ScenarioRoundRecord] = []
        aggregates = ScenarioAggregates()
        stream = _FingerprintStream()

        def observe(round_metrics: RoundMetrics) -> None:
            record = distill_round(round_metrics, weights, total_devices)
            stream.observe_round(record, round_metrics)
            aggregates.observe(record)
            if self.record_rounds:
                records.append(record)
            if self.round_sink is not None:
                self.round_sink(record)

        metrics = MetricsCollector(
            on_round=observe, keep_rounds=self.record_rounds
        )
        simulator = self.build_simulator(script, metrics=metrics)
        try:
            simulator.run()
        finally:
            # buffering sinks flush even when the replay dies mid-run
            close = getattr(self.round_sink, "close", None)
            if close is not None:
                close()
        # the run is over: drop the (unpicklable) local observer so the
        # collector travels back from process-backend workers cleanly
        metrics.on_round = None
        header = (
            self.scenario.name,
            self.scheduler,
            self.scenario.seed,
            metrics.rounds_recorded,
            simulator.events_applied,
        )
        return ScenarioResult(
            scenario_name=self.scenario.name,
            scheduler=self.scheduler,
            seed=self.scenario.seed,
            num_rounds=metrics.rounds_recorded,
            num_events=simulator.events_applied,
            metrics=metrics,
            records=records,
            warm_hits=simulator.warm_stats.warm_hits,
            cold_solves=simulator.warm_stats.cold_solves,
            aggregates=aggregates,
            digest=stream.finalize(metrics.completions, header),
        )


def run_scenario(
    name: str,
    *,
    scheduler: str = "oef-coop",
    seed: int = 0,
    rounds: Optional[int] = None,
    round_duration: float = 300.0,
    warm: bool = True,
    **params: object,
) -> ScenarioResult:
    """One-shot convenience: build the recipe, replay it, return the result."""
    scenario = make_scenario(
        name, seed=seed, rounds=rounds, round_duration=round_duration, **params
    )
    return ScenarioRunner(scenario, scheduler=scheduler, warm=warm).run()


def _sweep_runner_factory(
    seed: int, *, scenario: Scenario, scheduler: str, warm: bool = True
) -> ScenarioRunner:
    """Module-level (hence picklable) ``factory(seed)`` for scenario sweeps."""
    return ScenarioRunner(scenario.with_seed(seed), scheduler=scheduler, warm=warm)


def scenario_sweep(
    scenario: Union[Scenario, str],
    seeds: Sequence[int],
    *,
    scheduler: str = "oef-coop",
    backend: BackendSpec = "auto",
    max_workers: Optional[int] = None,
    warm: bool = True,
) -> List[ScenarioResult]:
    """Replay one scenario under many seeds, fanned out across workers.

    Rides :meth:`ClusterSimulator.run_sweep`, so ``backend`` accepts the
    usual ``"serial"`` / ``"thread"`` / ``"process"`` / ``"auto"`` names
    (or an :class:`~repro.parallel.ExecutionBackend` instance).  Results
    arrive in seed order and are backend-independent: aggregate metrics
    from a serial sweep match a thread or process sweep bit for bit.
    """
    if not seeds:
        raise ValidationError("scenario_sweep needs at least one seed")
    if isinstance(scenario, str):
        scenario = make_scenario(scenario)
    factory = partial(
        _sweep_runner_factory, scenario=scenario, scheduler=scheduler, warm=warm
    )
    return ClusterSimulator.run_sweep(
        factory, list(seeds), backend=backend, max_workers=max_workers
    )


def sweep_summary(results: Sequence[ScenarioResult]) -> Dict[str, object]:
    """Aggregate one sweep: per-seed means reduced to a single row."""
    if not results:
        raise ValidationError("no results to summarise")
    return {
        "scenario": results[0].scenario_name,
        "scheduler": results[0].scheduler,
        "seeds": len(results),
        "mean jobs done": float(np.mean([r.completed_jobs for r in results])),
        "mean JCT (h)": float(np.mean([r.mean_jct for r in results])) / 3600.0,
        "mean utilization": float(
            np.mean([r.mean_utilization for r in results])
        ),
        "mean jain": float(np.mean([r.mean_jain for r in results])),
        "mean envy": float(np.mean([r.mean_envy for r in results])),
    }


__all__ = [
    "ScenarioAggregates",
    "ScenarioResult",
    "ScenarioRoundRecord",
    "ScenarioRunner",
    "distill_round",
    "run_scenario",
    "scenario_sweep",
    "sweep_summary",
]
