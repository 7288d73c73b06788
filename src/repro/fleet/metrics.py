"""Streaming fleet metrics: the per-round JSONL sink and its aggregator.

The sink is a region's ``round_sink``: each region worker's
:class:`~repro.scenarios.runner.ScenarioRunner` distils rounds as they
happen and :class:`FleetMetricsWriter` appends them to ONE shared
``repro/fleetmetrics-v1`` JSONL file.  Batches land with a single
``O_APPEND`` ``write(2)`` + fsync (:func:`repro.jsonlio.append_jsonl_lines`),
so concurrent regions interleave whole lines, never halves — line
*order* across regions is nondeterministic, line *content* is not,
which is why readers regroup by ``(region, round)``.

Memory story: a fleet run holds O(regions) writer buffers (bounded by
``flush_every``) plus the aggregator's per-window scalars — never
O(rounds × tenants) records.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro import jsonlio
from repro.core.analysis import jain_index
from repro.exceptions import SchemaError
from repro.fleet.schema import FLEETMETRICS_SCHEMA, validate_fleet_record
from repro.scenarios.runner import ScenarioRoundRecord


class FleetMetricsWriter:
    """Picklable per-region round sink writing the shared JSONL stream.

    One instance per region worker; ``__call__`` accepts the distilled
    :class:`~repro.scenarios.runner.ScenarioRoundRecord`, wraps it in a
    validated ``repro/fleetmetrics-v1`` record, and buffers it.
    Buffers flush every ``flush_every`` rounds as one atomic batch
    append; the runner calls :meth:`close` after the replay, so the
    tail always lands.
    """

    def __init__(
        self,
        path: str,
        *,
        fleet: str,
        region: str,
        seed: int,
        scheduler: str,
        flush_every: int = 64,
    ):
        self.path = str(path)
        self.fleet = str(fleet)
        self.region = str(region)
        self.seed = int(seed)
        self.scheduler = str(scheduler)
        self.flush_every = max(1, int(flush_every))
        self._buffer: List[Dict[str, object]] = []

    def __call__(self, record: ScenarioRoundRecord) -> None:
        entry: Dict[str, object] = {
            "schema": FLEETMETRICS_SCHEMA,
            "fleet": self.fleet,
            "region": self.region,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "round": int(record.round_index),
            "time": float(record.time),
            "active_tenants": int(record.active_tenants),
            "total_throughput": float(record.total_throughput),
            "utilization": float(record.utilization),
            "jain": min(1.0, max(0.0, float(record.jain))),
            "envy": min(1.0, max(0.0, float(record.envy))),
            "starved_jobs": int(record.starved_jobs),
        }
        validate_fleet_record(entry)
        self._buffer.append(entry)
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            jsonlio.append_jsonl_lines(self.path, self._buffer)
            self._buffer = []

    def close(self) -> None:
        self.flush()


def read_fleet_metrics(path: str) -> List[Dict[str, object]]:
    """Validated stream records, regrouped into ``(region, round)`` order.

    Concurrent region appends interleave arbitrarily; sorting restores
    the deterministic view every consumer (aggregator, tests, CLI)
    works from.
    """
    records = jsonlio.read_jsonl(path, FLEETMETRICS_SCHEMA)
    records.sort(key=lambda r: (str(r["region"]), int(r["round"])))  # type: ignore[index]
    return records


class WindowAggregator:
    """Incremental per-window fleet aggregates: count/mean/p50/p95/Jain.

    Feed it stream records in any order; state per window is a few
    scalars plus one throughput sample per fed round — O(rounds)
    floats, never O(rounds × tenants) objects.  ``jain`` is the Jain
    index over *per-region* mean throughput inside the window — the
    cross-region balance the global quota layer is trying to hold —
    while ``mean_jain`` averages the per-round within-region indices.
    """

    def __init__(self, window_rounds: int = 6):
        if window_rounds < 1:
            raise SchemaError("window_rounds", "must be >= 1")
        self.window_rounds = int(window_rounds)
        self._windows: Dict[int, Dict[str, object]] = {}

    def feed(self, record: Mapping[str, object]) -> None:
        window = int(record["round"]) // self.window_rounds  # type: ignore[arg-type]
        state = self._windows.setdefault(
            window,
            {"throughputs": [], "jain_sum": 0.0, "by_region": {}},
        )
        throughput = float(record["total_throughput"])  # type: ignore[arg-type]
        state["throughputs"].append(throughput)  # type: ignore[union-attr]
        state["jain_sum"] += float(record["jain"])  # type: ignore[arg-type, operator]
        by_region = state["by_region"]
        region = str(record["region"])
        sums = by_region.setdefault(region, [0.0, 0])  # type: ignore[union-attr]
        sums[0] += throughput
        sums[1] += 1

    def summary(self) -> List[Dict[str, object]]:
        """One row per window, in window order."""
        rows: List[Dict[str, object]] = []
        for window in sorted(self._windows):
            state = self._windows[window]
            values = np.asarray(state["throughputs"], dtype=float)
            region_means = [
                total / count
                for total, count in state["by_region"].values()  # type: ignore[union-attr]
                if count
            ]
            rows.append(
                {
                    "window": window,
                    "rounds": int(values.size),
                    "regions": len(state["by_region"]),  # type: ignore[arg-type]
                    "mean_throughput": float(values.mean()) if values.size else 0.0,
                    "p50_throughput": (
                        float(np.percentile(values, 50)) if values.size else 0.0
                    ),
                    "p95_throughput": (
                        float(np.percentile(values, 95)) if values.size else 0.0
                    ),
                    "jain": jain_index(region_means) if region_means else 1.0,
                    "mean_jain": (
                        float(state["jain_sum"]) / values.size  # type: ignore[arg-type]
                        if values.size
                        else 1.0
                    ),
                }
            )
        return rows


def aggregate_stream(
    path: str, window_rounds: int = 6
) -> List[Dict[str, object]]:
    """Read one metrics stream and reduce it to per-window rows."""
    aggregator = WindowAggregator(window_rounds)
    for record in read_fleet_metrics(path):
        aggregator.feed(record)
    return aggregator.summary()


__all__ = [
    "FleetMetricsWriter",
    "WindowAggregator",
    "aggregate_stream",
    "read_fleet_metrics",
]
