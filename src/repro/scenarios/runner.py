"""ScenarioRunner: drive one scenario through the cluster simulator.

The runner materialises a :class:`~repro.scenarios.scenario.Scenario`
recipe, builds a :class:`~repro.cluster.simulator.ClusterSimulator`
with the scenario's event stream attached, runs it, and distils each
raw round into a :class:`ScenarioRoundRecord` as it happens: the records
feed running aggregates, the fingerprint and the optional
``round_sink``, and are then dropped, so a replay's memory is O(1) in
rounds.  The :class:`ScenarioResult` carries the aggregate summary row
the CLI, the scenario-comparison experiment and
``experiments/report.py`` consume; per-round records come from
``round_sink``.

A runner is the one description of a replay: scenario, scheduler,
``config_overrides`` (any :class:`~repro.cluster.simulator.SimulationConfig`
field) and ``round_sink``.  Every other entry point derives from it:
:func:`scenario_sweep` replays a runner's settings over many seeds, and
:class:`~repro.fleet.simulator.FleetSimulator` builds one runner per
region.

Each scheduler brings its own evaluation stack (§6.1.3), which the
simulator derives from it: OEF evaluators run with the optimised placer
and the min-demand rounding rule; baselines run with the naive placer
and plain deviation rounding.  That keeps ``ScenarioRunner(scenario,
s).run()`` an apples-to-apples replay of the same event stream under
scheduler ``s``.

Multi-seed sweeps ride the execution backends (:mod:`repro.parallel`):
:func:`scenario_sweep` hands :meth:`ClusterSimulator.run_sweep` a
picklable runner factory, so ``backend="process"`` fans whole scenario
replays out across cores and the per-seed results come back in seed
order.  Determinism contract: for a fixed (scenario, seed, scheduler),
the summary row is identical on every backend.

Warm-started replay (``SimulationConfig.warm_start``, on by default)
threads each round's solution into the next through the simulator's
decision memo — a bounded LRU keyed by the scheduler's own content key
(see :mod:`repro.cluster.simulator`) — cutting repeat-round LP cost to
zero while staying **bit-identical** to a cold replay — compare
:meth:`ScenarioResult.fingerprint` across warm/cold runs or execution
backends to check.  ``config_overrides={"warm_start": False}`` (CLI:
``--cold``) forces every round to solve from scratch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.metrics import MetricsCollector, RoundMetrics
from repro.cluster.simulator import ClusterSimulator
from repro.core.analysis import jain_index
from repro.exceptions import ValidationError
from repro.parallel import BackendSpec
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

    The runner feeds it every distilled record as it happens, so summary
    rows stay available although the records themselves are dropped.
    Means are over *active* rounds (rounds with at least one scheduled
    tenant).
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


#: Bound on a fingerprint stream's memo of entry texts; a full memo is cleared.
ENTRY_TEXT_MEMO_MAX = 4096


class _FingerprintStream:
    """Incremental SHA-256 over one replay's scheduling outcomes.

    Byte order is per-round interleaved — (distilled record, scheduler
    estimates, delivered actuals) as each round lands — then every
    completion, then the run header.  The header goes *last* because
    its round/event counts are only known once the run ends; the order
    is fixed and deterministic, which is all the fingerprint contract
    needs (fingerprints are compared between runs, never parsed).

    A round hashes ``repr(sorted(d.items())).encode()`` of each dict.  Rounds
    answered by one memo entry share its ``estimated`` dict, which is
    encoded once (:meth:`active_order`); ``actual`` entry texts are memoised,
    as a replay delivers few distinct rates.
    """

    def __init__(self, weights: Dict[str, float]) -> None:
        self._digest = hashlib.sha256()
        self._weights = weights
        # (estimated dict, its bytes, (sorted tenants, their weights))
        self._estimated: tuple = (None, b"", ([], []))
        # (tenant, value) -> repr((tenant, value)); only nonzero floats, as
        # 0.0 == -0.0 and 1 == 1.0 would share a key but not a text
        self._texts: Dict[tuple, str] = {}

    def active_order(
        self, estimated: Dict[str, float]
    ) -> Tuple[List[str], List[float]]:
        """``estimated``'s tenants sorted, and their weights (1.0 if unknown)."""
        if estimated is not self._estimated[0]:
            active = sorted(estimated)
            self._estimated = (
                estimated,
                repr(sorted(estimated.items())).encode(),
                (active, [self._weights.get(name, 1.0) for name in active]),
            )
        return self._estimated[2]

    def observe_round(
        self, record: "ScenarioRoundRecord", round_metrics: RoundMetrics
    ) -> None:
        update = self._digest.update
        update(
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
        self.active_order(round_metrics.estimated)
        update(self._estimated[1])
        texts = self._texts
        entries = []
        for item in sorted(round_metrics.actual.items()):
            value = item[1]
            if type(value) is not float or not value:
                entries.append(repr(item))
                continue
            text = texts.get(item)
            if text is None:
                if len(texts) >= ENTRY_TEXT_MEMO_MAX:
                    texts.clear()
                text = texts[item] = repr(item)
            entries.append(text)
        update(f"[{', '.join(entries)}]".encode())

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
    #: Running aggregates maintained during the replay; the summary
    #: properties read these.
    aggregates: ScenarioAggregates
    #: Fingerprint computed incrementally during the run (the rounds are
    #: not kept to recompute it from); :meth:`fingerprint` returns it.
    digest: str
    #: Warm-start engine split for this run (0 hits with the memo off or
    #: for never-cached schedulers).  Excluded from :meth:`summary_row` and
    #: :meth:`fingerprint` so warm and cold replays stay comparable.
    #: (``warm_hits`` counts decision-memo hits; bench/worker.py reads the name.)
    warm_hits: int = 0
    cold_solves: int = 0

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
        return self.aggregates.mean_utilization

    @property
    def mean_jain(self) -> float:
        return self.aggregates.mean_jain

    @property
    def mean_envy(self) -> float:
        return self.aggregates.mean_envy

    @property
    def total_starvation(self) -> int:
        return self.aggregates.starved_jobs

    def fingerprint(self) -> str:
        """SHA-256 over every scheduling outcome: the differential probe.

        Covers each round's distilled record, the scheduler's own
        per-round throughput estimates, the delivered actuals, and every
        completion — at full float precision (``repr``), so two runs
        share a fingerprint only when their decisions were
        *bit-identical*.  Wall-clock artefacts (``solver_seconds``) and
        warm-start telemetry are excluded.

        The contract: for a fixed (scenario, seed, scheduler), the
        fingerprint is identical across warm/cold replays and
        serial/thread/process sweeps; each round is hashed as it
        happens.  Fingerprints are only ever *compared* between runs,
        never parsed or pinned as constants.
        """
        return self.digest

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


def _weighted_envy(throughputs: Sequence[float], weights: Sequence[float]) -> float:
    """Normalised spread of weighted throughput: 0 = envy-free proxy holds."""
    weighted = [t / w for t, w in zip(throughputs, weights)]
    top = max(weighted, default=0.0)
    if top <= 0.0:
        return 0.0
    return (top - min(weighted)) / top


def distill_round(
    round_metrics: RoundMetrics,
    order: Tuple[List[str], List[float]],
    total_devices: int,
) -> ScenarioRoundRecord:
    """One raw :class:`RoundMetrics` → one distilled scenario record.

    ``order`` is the round's active tenants sorted and their weights, as
    :meth:`_FingerprintStream.active_order` keeps them across the rounds
    that share an ``estimated`` dict.
    """
    active, active_weights = order
    actual = round_metrics.actual
    throughputs = [float(actual.get(name, 0.0)) for name in active]
    return ScenarioRoundRecord(
        round_index=round_metrics.round_index,
        time=round_metrics.time,
        active_tenants=len(active),
        total_throughput=float(sum(throughputs)),
        utilization=(
            round_metrics.devices_used / total_devices if total_devices else 0.0
        ),
        jain=jain_index(throughputs) if active else 1.0,
        envy=_weighted_envy(throughputs, active_weights),
        starved_jobs=round_metrics.starved_jobs,
    )


class ScenarioRunner:
    """Replays one scenario recipe under one scheduler.

    ``scheduler`` is any registry name or alias (``"oef-coop"``,
    ``"cooperative"``, ``"gavel"``, ...) or an elastic mode name; the
    simulator builds it with
    :func:`~repro.cluster.schedulers.make_fair_share_scheduler`, so a
    replay runs the same §6.1.3 stack as the paper experiments.  Every
    ``run()`` call re-materialises the recipe, so one runner can be run
    repeatedly — and two runners replaying the same recipe under
    different schedulers see byte-identical event streams.

    ``config_overrides`` are :class:`~repro.cluster.simulator.SimulationConfig`
    fields laid over the scenario's horizon (``{"warm_start": False}``
    replays cold).  ``round_sink`` is fed every distilled
    :class:`ScenarioRoundRecord` as it happens; if it has a ``close()``
    method the runner calls it after the replay (also when it raises),
    so buffering sinks can flush.
    """

    def __init__(
        self,
        scenario: Union[Scenario, str],
        scheduler: str = "oef-coop",
        *,
        config_overrides: Optional[Dict[str, object]] = None,
        round_sink: Optional[Callable[[ScenarioRoundRecord], None]] = None,
    ):
        if isinstance(scenario, str):
            scenario = make_scenario(scenario)
        self.scenario = scenario
        self.scheduler = scheduler
        self.config_overrides = dict(config_overrides or {})
        self.round_sink = round_sink

    # -- construction ---------------------------------------------------------
    def build_simulator(
        self,
        script: Optional[ScenarioScript] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> ClusterSimulator:
        """A fresh, event-loaded simulator for one replay of the recipe."""
        script = script if script is not None else self.scenario.materialize()
        return ClusterSimulator(
            script.topology,
            list(script.initial_tenants),
            self.scheduler,
            config=self.scenario.simulation_config(self.config_overrides),
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

        aggregates = ScenarioAggregates()
        stream = _FingerprintStream(weights)

        def observe(round_metrics: RoundMetrics) -> None:
            order = stream.active_order(round_metrics.estimated)
            record = distill_round(round_metrics, order, total_devices)
            stream.observe_round(record, round_metrics)
            aggregates.observe(record)
            if self.round_sink is not None:
                self.round_sink(record)

        metrics = MetricsCollector(on_round=observe, keep_rounds=False)
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
            warm_hits=simulator.warm_stats.warm_hits,
            cold_solves=simulator.warm_stats.cold_solves,
            aggregates=aggregates,
            digest=stream.finalize(metrics.completions, header),
        )


def _sweep_runner_factory(seed: int, *, runner: ScenarioRunner) -> ScenarioRunner:
    """Module-level (hence picklable) ``factory(seed)`` for scenario sweeps:
    ``runner``'s settings on the recipe re-seeded with ``seed``."""
    return ScenarioRunner(
        runner.scenario.with_seed(seed),
        runner.scheduler,
        config_overrides=runner.config_overrides,
        round_sink=runner.round_sink,
    )


def scenario_sweep(
    runner: ScenarioRunner,
    seeds: Sequence[int],
    *,
    backend: BackendSpec = "auto",
    max_workers: Optional[int] = None,
) -> List[ScenarioResult]:
    """Replay ``runner``'s settings under many seeds, fanned out across workers.

    Each seed re-seeds the runner's recipe; its scheduler,
    ``config_overrides`` and ``round_sink`` carry over (a sink runs in
    the worker that replays the seed).  Rides
    :meth:`ClusterSimulator.run_sweep`, so ``backend`` accepts the usual
    ``"serial"`` / ``"thread"`` / ``"process"`` / ``"auto"`` names (see
    :func:`repro.parallel.get_backend`).  Results arrive in seed order
    and are backend-independent: aggregate metrics from a serial sweep
    match a thread or process sweep bit for bit.
    """
    if not isinstance(runner, ScenarioRunner):
        raise ValidationError(
            "scenario_sweep takes a ScenarioRunner: "
            "scenario_sweep(ScenarioRunner(recipe, scheduler), seeds)"
        )
    if not seeds:
        raise ValidationError("scenario_sweep needs at least one seed")
    factory = partial(_sweep_runner_factory, runner=runner)
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
    "scenario_sweep",
    "sweep_summary",
]
