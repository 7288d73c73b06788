"""MetricsCollector aggregation logic."""

import pytest

from repro.cluster.metrics import CompletionRecord, MetricsCollector, RoundMetrics


def _collector():
    collector = MetricsCollector()
    collector.record_round(
        RoundMetrics(
            round_index=0,
            time=0.0,
            estimated={"a": 4.0, "b": 6.0},
            actual={"a": 3.0, "b": 5.0},
            actual_by_model={("a", "vgg16"): 3.0},
            straggler_workers=2,
            cross_host_jobs=1,
            cross_type_jobs=1,
            starved_jobs=1,
            devices_used=10,
            solver_seconds=0.01,
        )
    )
    collector.record_round(
        RoundMetrics(
            round_index=1,
            time=300.0,
            estimated={"a": 4.0},
            actual={"a": 4.0},
            straggler_workers=1,
            solver_seconds=0.03,
        )
    )
    collector.record_completion(
        CompletionRecord(1, "a", "vgg16", submit_time=0.0, finish_time=450.0)
    )
    collector.record_completion(
        CompletionRecord(2, "b", "lstm", submit_time=100.0, finish_time=400.0)
    )
    return collector


class TestAggregates:
    def test_mean_totals(self):
        collector = _collector()
        assert collector.mean_total_estimated() == pytest.approx((10.0 + 4.0) / 2)
        assert collector.mean_total_actual() == pytest.approx((8.0 + 4.0) / 2)

    def test_empty_rounds_skipped_by_default(self):
        collector = _collector()
        collector.record_round(RoundMetrics(round_index=2, time=600.0))
        assert collector.mean_total_actual() == pytest.approx(6.0)
        assert collector.mean_total_actual(skip_empty=False) == pytest.approx(4.0)

    def test_tenant_series(self):
        collector = _collector()
        assert collector.tenant_series("b") == [5.0, 0.0]
        assert collector.tenant_series("b", kind="estimated") == [6.0, 0.0]

    def test_model_series(self):
        collector = _collector()
        assert collector.model_series("a", "vgg16") == [3.0, 0.0]

    def test_mean_tenant_throughput_ignores_zero_rounds(self):
        collector = _collector()
        assert collector.mean_tenant_throughput("b") == pytest.approx(5.0)

    def test_jcts(self):
        collector = _collector()
        assert collector.jcts() == [450.0, 300.0]
        assert collector.jcts("b") == [300.0]
        assert collector.mean_jct() == pytest.approx(375.0)
        assert collector.mean_jct("nobody") == 0.0

    def test_counters(self):
        collector = _collector()
        assert collector.total_straggler_workers() == 3
        assert collector.total_cross_type_jobs() == 1
        assert collector.total_starvation_rounds() == 1

    def test_makespan(self):
        collector = _collector()
        assert collector.makespan() == 450.0
        assert MetricsCollector().makespan() == 0.0
