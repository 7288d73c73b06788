"""Metrics collection for cluster simulations.

The paper's headline metric is *normalised throughput*: delivered training
speed in units of "equivalent slowest-type GPUs" (§6.1.4).  Per round the
collector records each tenant's *estimated* throughput (the fair-share
evaluator's fluid view) and *actual* throughput (post-rounding, placement,
straggler, and network effects) — the two bars of Fig. 7/8 — plus JCTs,
straggler counts, and solver overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np


@dataclass
class RoundMetrics:
    """One scheduling round's outcome (``estimated`` may be a shared memo dict)."""

    round_index: int
    time: float
    estimated: Dict[str, float] = field(default_factory=dict)
    actual: Dict[str, float] = field(default_factory=dict)
    actual_by_model: Dict[tuple, float] = field(default_factory=dict)
    straggler_workers: int = 0
    cross_host_jobs: int = 0
    cross_type_jobs: int = 0
    starved_jobs: int = 0
    devices_used: int = 0
    solver_seconds: float = 0.0

    @property
    def total_estimated(self) -> float:
        return float(sum(self.estimated.values()))

    @property
    def total_actual(self) -> float:
        return float(sum(self.actual.values()))


@dataclass
class CompletionRecord:
    job_id: int
    tenant: str
    model_name: str
    submit_time: float
    finish_time: float

    @property
    def jct(self) -> float:
        return self.finish_time - self.submit_time


class MetricsCollector:
    """Accumulates per-round metrics and completion records.

    ``on_round`` is an optional observer called with each
    :class:`RoundMetrics` *before* it is stored — the streaming hook the
    scenario runner and the fleet metrics sink use to distil rounds as
    they happen.  ``keep_rounds=False`` drops each round after the
    observer has seen it, so a long replay's memory stays bounded by
    the observer's own state instead of O(rounds × tenants); the
    round-based aggregate views (``mean_total_actual``,
    ``tenant_series``, ...) then see an empty history and return their
    empty-input defaults.  Completions are always kept — they are
    O(jobs), not O(rounds), and JCT/makespan summaries need them.
    """

    def __init__(
        self,
        on_round: Optional[Callable[[RoundMetrics], None]] = None,
        keep_rounds: bool = True,
    ) -> None:
        self.on_round = on_round
        self.keep_rounds = bool(keep_rounds)
        self.rounds: List[RoundMetrics] = []
        self.completions: List[CompletionRecord] = []
        #: Rounds recorded, whether or not they were kept.
        self.rounds_recorded = 0

    # -- recording ---------------------------------------------------------
    def record_round(self, metrics: RoundMetrics) -> None:
        self.rounds_recorded += 1
        if self.on_round is not None:
            self.on_round(metrics)
        if self.keep_rounds:
            self.rounds.append(metrics)

    def record_completion(self, record: CompletionRecord) -> None:
        self.completions.append(record)

    # -- aggregate views ------------------------------------------------------
    def mean_total_estimated(self, skip_empty: bool = True) -> float:
        values = [
            r.total_estimated
            for r in self.rounds
            if not skip_empty or r.estimated
        ]
        return float(np.mean(values)) if values else 0.0

    def mean_total_actual(self, skip_empty: bool = True) -> float:
        values = [
            r.total_actual for r in self.rounds if not skip_empty or r.actual
        ]
        return float(np.mean(values)) if values else 0.0

    def tenant_series(self, tenant: str, kind: str = "actual") -> List[float]:
        """Per-round throughput series for one tenant (Fig. 4/5 curves)."""
        series = []
        for round_metrics in self.rounds:
            source = (
                round_metrics.actual if kind == "actual" else round_metrics.estimated
            )
            series.append(float(source.get(tenant, 0.0)))
        return series

    def model_series(self, tenant: str, model_name: str) -> List[float]:
        """Per-round delivered throughput for one (tenant, model) pair."""
        return [
            float(round_metrics.actual_by_model.get((tenant, model_name), 0.0))
            for round_metrics in self.rounds
        ]

    def mean_tenant_throughput(self, tenant: str, kind: str = "actual") -> float:
        series = [
            value for value in self.tenant_series(tenant, kind) if value > 0.0
        ]
        return float(np.mean(series)) if series else 0.0

    def jcts(self, tenant: Optional[str] = None) -> List[float]:
        return [
            record.jct
            for record in self.completions
            if tenant is None or record.tenant == tenant
        ]

    def mean_jct(self, tenant: Optional[str] = None) -> float:
        values = self.jcts(tenant)
        return float(np.mean(values)) if values else 0.0

    def total_straggler_workers(self) -> int:
        return sum(r.straggler_workers for r in self.rounds)

    def total_cross_type_jobs(self) -> int:
        return sum(r.cross_type_jobs for r in self.rounds)

    def total_starvation_rounds(self) -> int:
        return sum(r.starved_jobs for r in self.rounds)

    def makespan(self) -> float:
        if not self.completions:
            return 0.0
        return max(record.finish_time for record in self.completions)
