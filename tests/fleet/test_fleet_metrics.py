"""The streaming fleet metrics sink and its incremental aggregator."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.fleet import FleetSimulator, make_fleet_scenario, resolve_fleet_scenario
from repro.fleet.metrics import (
    FleetMetricsWriter,
    WindowAggregator,
    aggregate_stream,
    read_fleet_metrics,
)
from repro.exceptions import SchemaError
from repro.fleet.schema import FLEETMETRICS_SCHEMA, validate_fleet_record
from repro.scenarios.runner import ScenarioRoundRecord


def make_record(round_index: int, **overrides) -> ScenarioRoundRecord:
    fields = {
        "round_index": round_index,
        "time": round_index * 300.0,
        "active_tenants": 3,
        "total_throughput": 10.0 + round_index,
        "utilization": 0.8,
        "jain": 0.95,
        "envy": 0.05,
        "starved_jobs": 0,
    }
    fields.update(overrides)
    return ScenarioRoundRecord(**fields)


def good_entry(**overrides):
    entry = {
        "schema": FLEETMETRICS_SCHEMA,
        "fleet": "f",
        "region": "region0",
        "seed": 0,
        "scheduler": "oef-coop",
        "round": 0,
        "time": 0.0,
        "active_tenants": 2,
        "total_throughput": 5.0,
        "utilization": 0.5,
        "jain": 1.0,
        "envy": 0.0,
        "starved_jobs": 0,
    }
    entry.update(overrides)
    return entry


class TestSchema:
    def test_good_record_passes(self):
        validate_fleet_record(good_entry())

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"schema": "nope"}, "schema"),
            ({"region": ""}, "region"),
            ({"seed": "0"}, "seed"),
            ({"round": -1}, "round"),
            ({"round": True}, "round"),
            ({"total_throughput": -1.0}, "total_throughput"),
            ({"jain": 1.5}, "jain"),
            ({"envy": -0.1}, "envy"),
            ({"starved_jobs": 1.5}, "starved_jobs"),
        ],
    )
    def test_bad_records_name_the_field(self, overrides, path):
        with pytest.raises(SchemaError, match=path):
            validate_fleet_record(good_entry(**overrides))


class TestWriter:
    def test_streams_validated_rounds(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        writer = FleetMetricsWriter(
            path, fleet="f", region="region0", seed=3, scheduler="drf"
        )
        for i in range(5):
            writer(make_record(i))
        writer.close()
        records = read_fleet_metrics(path)
        assert [r["round"] for r in records] == list(range(5))
        assert all(r["scheduler"] == "drf" and r["seed"] == 3 for r in records)

    def test_buffer_flushes_at_flush_every(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        writer = FleetMetricsWriter(
            path, fleet="f", region="r", seed=0, scheduler="s", flush_every=3
        )
        writer(make_record(0))
        writer(make_record(1))
        assert read_fleet_metrics(path) == []  # still buffered
        writer(make_record(2))
        assert len(read_fleet_metrics(path)) == 3  # batch landed
        writer(make_record(3))
        writer.close()  # tail flushed
        assert len(read_fleet_metrics(path)) == 4

    def test_interleaved_regions_regroup_on_read(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        a = FleetMetricsWriter(
            path, fleet="f", region="a", seed=0, scheduler="s", flush_every=1
        )
        b = FleetMetricsWriter(
            path, fleet="f", region="b", seed=0, scheduler="s", flush_every=1
        )
        b(make_record(0))
        a(make_record(0))
        b(make_record(1))
        a(make_record(1))
        keys = [(r["region"], r["round"]) for r in read_fleet_metrics(path)]
        assert keys == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]

    def test_out_of_range_jain_is_clamped(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        writer = FleetMetricsWriter(
            path, fleet="f", region="r", seed=0, scheduler="s", flush_every=1
        )
        writer(make_record(0, jain=1.0000001, envy=-1e-9))
        (record,) = read_fleet_metrics(path)
        assert record["jain"] == 1.0
        assert record["envy"] == 0.0


class TestStreamingMemory:
    """Regions stream their rounds to the sink instead of keeping them.

    Peak traced memory of an 8x longer fleet run stays within
    ``PEAK_FACTOR`` of the short run's.  Kept rounds would grow it by
    about 2.5x on this shape.  Every job outlives the run, so each round
    after the first is a decision-memo hit and no cache fills up with
    run length.  The rebalancer is off because its weight timeline holds
    one row per window by design, and the sink flushes every 4 rounds so
    its buffer stays a small constant.
    """

    SHORT_ROUNDS, LONG_ROUNDS = 8, 64
    PEAK_FACTOR = 2.0

    def _peak_bytes(self, tmp_path, rounds: int) -> int:
        fleet = resolve_fleet_scenario(
            "steady", seed=5, regions=2, rounds=rounds,
            num_tenants=32, jobs_per_tenant=1, duration_fraction=3.0,
        )
        simulator = FleetSimulator(
            fleet, backend="serial", rebalance=False, flush_every=4,
            metrics_path=str(tmp_path / f"rounds{rounds}.jsonl"),
        )
        tracemalloc.start()
        try:
            result = simulator.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.total_rounds == rounds * 2  # both regions ran full
        assert result.fairness_violations == 0
        return peak

    def test_peak_memory_independent_of_rounds(self, tmp_path):
        # the first run in a process pays one-time allocations
        self._peak_bytes(tmp_path, self.SHORT_ROUNDS)
        short_peak = self._peak_bytes(tmp_path, self.SHORT_ROUNDS)
        long_peak = self._peak_bytes(tmp_path, self.LONG_ROUNDS)
        ratio = long_peak / short_peak
        assert ratio < self.PEAK_FACTOR, (
            f"peak memory grew {ratio:.2f}x for "
            f"{self.LONG_ROUNDS // self.SHORT_ROUNDS}x the rounds: round "
            f"records are accumulating instead of streaming"
        )


class TestWindowRows:
    """``FleetResult.window_summary`` reads the rows each region wrote, not
    the stream: its rows equal ``aggregate_stream`` over the file bit for
    bit, whatever the backend, window size, flush cadence or region count."""

    def _run(self, tmp_path, name="run", regions=3, rounds=6, **options):
        path = str(tmp_path / f"{name}.jsonl")
        simulator = FleetSimulator(
            make_fleet_scenario("spot-preemption", seed=9, regions=regions, rounds=rounds),
            metrics_path=path,
            **options,
        )
        return simulator, simulator.run(), path

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_rows_equal_the_stream_on_every_backend(self, tmp_path, backend):
        _, result, path = self._run(tmp_path, backend=backend)
        windows = result.window_summary()
        assert windows and windows == aggregate_stream(path)

    def test_a_summary_window_other_than_the_simulators(self, tmp_path):
        _, result, path = self._run(tmp_path, backend="serial", window_rounds=3)
        for window_rounds in (1, 2, 4, 5, 6):
            assert result.window_summary(window_rounds) == aggregate_stream(
                path, window_rounds
            )

    def test_rows_survive_a_buffer_that_empties_mid_run(self, tmp_path):
        _, result, path = self._run(tmp_path, backend="serial", flush_every=2)
        assert result.window_summary() == aggregate_stream(tmp_path / "run.jsonl")

    def test_region_order_is_the_streams_string_order(self, tmp_path):
        _, result, path = self._run(tmp_path, backend="serial", regions=12, rounds=3)
        names = sorted(region.region for region in result.regions)
        assert names.index("region10") < names.index("region2")
        for window_rounds in (1, 2, 3):
            assert result.window_summary(window_rounds) == aggregate_stream(
                path, window_rounds
            )

    def test_each_run_summarises_its_own_rounds(self, tmp_path):
        simulator, first, path = self._run(tmp_path, backend="serial")
        second = simulator.run()  # the stream now holds both runs
        assert second.window_summary() == first.window_summary()
        assert sum(row["rounds"] for row in aggregate_stream(path)) == 2 * sum(
            row["rounds"] for row in first.window_summary()
        )

    def test_an_unsunk_run_has_no_summary(self):
        fleet = make_fleet_scenario("spot-preemption", seed=9, regions=2, rounds=3)
        result = FleetSimulator(fleet, backend="serial").run()
        assert result.window_summary() == []
        assert all(region.rows == () for region in result.regions)


class TestAggregator:
    def test_windows_partition_rounds(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        writer = FleetMetricsWriter(
            path, fleet="f", region="r", seed=0, scheduler="s", flush_every=1
        )
        for i in range(7):
            writer(make_record(i))
        rows = aggregate_stream(path, window_rounds=3)
        assert [row["window"] for row in rows] == [0, 1, 2]
        assert [row["rounds"] for row in rows] == [3, 3, 1]

    def test_cross_region_jain_reads_imbalance(self):
        aggregator = WindowAggregator(window_rounds=4)
        for i in range(4):
            aggregator.feed(good_entry(round=i, total_throughput=10.0))
            aggregator.feed(
                good_entry(round=i, region="region1", total_throughput=1.0)
            )
        (row,) = aggregator.summary()
        assert row["regions"] == 2
        assert row["jain"] < 0.7  # 10x skew between regions
        assert row["mean_jain"] == pytest.approx(1.0)  # within-region is fine

    def test_percentiles_bound_the_mean(self):
        aggregator = WindowAggregator(window_rounds=8)
        for i in range(8):
            aggregator.feed(good_entry(round=i, total_throughput=float(i)))
        (row,) = aggregator.summary()
        assert row["p50_throughput"] <= row["p95_throughput"]
        assert 0.0 < row["mean_throughput"] < row["p95_throughput"]

    def test_window_rounds_must_be_positive(self):
        with pytest.raises(SchemaError):
            WindowAggregator(window_rounds=0)


class TestCorruptStream:
    """A bad line ends in ``SchemaError`` at ``file:lineno``, never ``TypeError``."""

    @pytest.mark.parametrize(
        "bad_line, lineno, detail",
        [
            ("not json\n", 2, "not valid JSON"),  # corrupt middle line
            ('{"schema": "repro/fleetmetrics-v1", "jain": 7}\n', 2, "fleet"),
            ('{"schema": "repro/fleetmetrics-v1", "fle', 3, "not valid JSON"),
        ],
        ids=["non-json", "schema-invalid", "torn-last-line"],
    )
    def test_bad_line_names_file_and_lineno(
        self, tmp_path, bad_line, lineno, detail
    ):
        import json

        path = str(tmp_path / "m.jsonl")
        good = json.dumps(good_entry()) + "\n"
        lines = [good, bad_line, good] if lineno == 2 else [good, good, bad_line]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        for reader in (read_fleet_metrics, aggregate_stream):
            with pytest.raises(SchemaError, match=detail) as excinfo:
                reader(path)
            assert excinfo.value.path == f"{path}:{lineno}"
