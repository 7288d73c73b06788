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
``flush_every``), three scalars per written round (``rows``, which the
region hands back for the window summary) and the aggregator's
per-window scalars — never O(rounds × tenants) records.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

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
    tail always lands.  ``rows`` keeps each written record's ``(round,
    total_throughput, jain)``, the part :class:`WindowAggregator` reads.
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
        self.rows: List[Tuple[int, float, float]] = []

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
        self.rows.append((entry["round"], entry["total_throughput"], entry["jain"]))
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
        # per window: [throughput per fed round, sum of jain, {region: [sum, rounds]}]
        self._windows: Dict[int, list] = {}

    def feed(self, record: Mapping[str, object]) -> None:
        self.add(str(record["region"]), int(record["round"]),  # type: ignore[arg-type]
                 float(record["total_throughput"]), float(record["jain"]))  # type: ignore[arg-type]

    def add(self, region: str, round_index: int, throughput: float, jain: float) -> None:
        """Feed one round given by its fields rather than its record."""
        state = self._windows.setdefault(round_index // self.window_rounds, [[], 0.0, {}])
        state[0].append(throughput)
        state[1] += jain
        sums = state[2].setdefault(region, [0.0, 0])
        sums[0] += throughput
        sums[1] += 1

    def summary(self) -> List[Dict[str, object]]:
        """One row per window, in window order (a window exists once fed)."""
        rows: List[Dict[str, object]] = []
        for window in sorted(self._windows):
            throughputs, jain_sum, by_region = self._windows[window]
            values = np.asarray(throughputs, dtype=float)
            rows.append({
                "window": window,
                "rounds": int(values.size),
                "regions": len(by_region),
                "mean_throughput": float(values.mean()),
                "p50_throughput": float(np.percentile(values, 50)),
                "p95_throughput": float(np.percentile(values, 95)),
                "jain": jain_index([total / count for total, count in by_region.values()]),
                "mean_jain": jain_sum / values.size,
            })
        return rows


def aggregate_stream(
    source: Union[str, os.PathLike, Iterable[Tuple[str, int, float, float]]],
    window_rounds: int = 6,
) -> List[Dict[str, object]]:
    """Reduce one metrics stream to per-window rows: read from its file
    when ``source`` is a path, else fed as ``(region, round,
    total_throughput, jain)`` rows in the reader's ``(region, round)``
    order."""
    aggregator = WindowAggregator(window_rounds)
    if isinstance(source, (str, os.PathLike)):
        for record in read_fleet_metrics(source):  # type: ignore[arg-type]
            aggregator.feed(record)
    else:
        for row in source:
            aggregator.add(*row)
    return aggregator.summary()


__all__ = [
    "FleetMetricsWriter",
    "WindowAggregator",
    "aggregate_stream",
    "read_fleet_metrics",
]
