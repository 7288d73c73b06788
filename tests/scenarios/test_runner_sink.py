"""A replay streams its rounds to ``round_sink`` instead of keeping them.

The documented fingerprint contract is the heart of this file: for a
fixed (scenario, seed, scheduler) the fingerprint is identical with or
without a sink, across warm/cold replays, and across execution backends
— it is computed incrementally from the same per-round stream.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ScenarioRunner, make_scenario
from repro.scenarios.runner import ScenarioAggregates, ScenarioRoundRecord


class RecordingSink:
    """A round sink that also remembers whether the runner closed it."""

    def __init__(self):
        self.records = []
        self.closed = False

    def __call__(self, record: ScenarioRoundRecord) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


@pytest.fixture
def scenario():
    return make_scenario("tenant-churn", seed=3, rounds=8)


class TestSinkMode:
    @pytest.mark.parametrize("with_sink", [False, True], ids=["default", "sink"])
    def test_records_are_dropped_but_counted(self, scenario, with_sink):
        sink = RecordingSink() if with_sink else None
        result = ScenarioRunner(scenario, round_sink=sink).run()
        assert result.num_rounds > 0
        assert result.metrics.rounds == []  # the collector keeps none
        assert result.metrics.rounds_recorded == result.num_rounds

    def test_round_sink_sees_every_round_and_is_closed(self, scenario):
        sink = RecordingSink()
        result = ScenarioRunner(scenario, round_sink=sink).run()
        assert sink.closed
        assert len(sink.records) == result.num_rounds
        assert [r.round_index for r in sink.records] == list(
            range(result.num_rounds)
        )

    def test_fingerprint_identical_with_and_without_a_sink(self, scenario):
        bare = ScenarioRunner(scenario).run()
        sunk = ScenarioRunner(scenario, round_sink=RecordingSink()).run()
        assert bare.fingerprint() == sunk.fingerprint()
        assert bare.summary_row() == sunk.summary_row()

    def test_fingerprint_identical_across_warm_and_cold(self, scenario):
        warm_sink, cold_sink = RecordingSink(), RecordingSink()
        warm = ScenarioRunner(scenario, round_sink=warm_sink).run()
        cold = ScenarioRunner(
            scenario, config_overrides={"warm_start": False}, round_sink=cold_sink
        ).run()
        assert warm.fingerprint() == cold.fingerprint()
        assert warm_sink.records == cold_sink.records

    def test_result_survives_the_process_backend(self, scenario):
        from repro.scenarios import scenario_sweep

        results = scenario_sweep(ScenarioRunner(scenario), [0, 1], backend="process")
        assert len(results) == 2  # the local observer must not travel

    def test_a_sweep_feeds_the_runner_sink_every_seed(self, scenario):
        from repro.scenarios import scenario_sweep

        sink = RecordingSink()
        results = scenario_sweep(
            ScenarioRunner(scenario, round_sink=sink), [0, 1], backend="serial"
        )
        assert len(sink.records) == sum(r.num_rounds for r in results)


class _Boom:
    """A timed event whose ``apply`` raises."""

    def __init__(self, time: float):
        self.time = time

    def apply(self, simulator, now):
        raise RuntimeError("boom")


class TestSinkClosesOnFailure:
    def _failing_script(self, scenario, at_round: int):
        from dataclasses import replace

        script = scenario.materialize()
        boom = _Boom(at_round * scenario.simulation_config({}).round_duration)
        events = sorted([*script.events, boom], key=lambda event: event.time)
        return replace(script, events=tuple(events))

    def test_sink_is_closed_when_the_replay_raises(self, scenario):
        sink = RecordingSink()
        runner = ScenarioRunner(scenario, round_sink=sink)
        with pytest.raises(RuntimeError, match="boom"):
            runner.run(self._failing_script(scenario, at_round=5))
        assert sink.closed
        assert [r.round_index for r in sink.records] == list(range(5))

    def test_buffered_fleet_stream_keeps_the_rounds_before_the_error(
        self, scenario, tmp_path
    ):
        from repro.fleet.metrics import FleetMetricsWriter, read_fleet_metrics

        path = tmp_path / "metrics.jsonl"
        writer = FleetMetricsWriter(
            str(path), fleet="f", region="region0", seed=3, scheduler="oef-coop"
        )
        assert writer.flush_every > 5  # the whole run sits in the buffer
        runner = ScenarioRunner(scenario, round_sink=writer)
        with pytest.raises(RuntimeError, match="boom"):
            runner.run(self._failing_script(scenario, at_round=5))
        assert [entry["round"] for entry in read_fleet_metrics(str(path))] == list(
            range(5)
        )


class TestAggregates:
    def test_running_means_match_recorded_means(self, scenario):
        sink = RecordingSink()
        result = ScenarioRunner(scenario, round_sink=sink).run()
        aggregates = ScenarioAggregates()
        for record in sink.records:
            aggregates.observe(record)
        assert aggregates.mean_utilization == pytest.approx(
            result.mean_utilization
        )
        assert aggregates.mean_jain == pytest.approx(result.mean_jain)

    def test_empty_aggregates_have_neutral_defaults(self):
        aggregates = ScenarioAggregates()
        assert aggregates.mean_utilization == 0.0
        assert aggregates.mean_jain == 1.0
        assert aggregates.mean_envy == 0.0
