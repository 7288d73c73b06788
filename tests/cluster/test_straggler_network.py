"""Straggler and network-contention models."""

import pytest

from repro.cluster import NetworkModel, StragglerModel, make_job
from repro.exceptions import SimulationError


@pytest.fixture
def job():
    return make_job(
        job_id=1,
        tenant="t",
        model_name="m",
        throughput=[2.0, 3.0, 4.0],
        num_workers=4,
    )


class TestStragglerModel:
    def test_single_type_runs_native(self, job):
        outcome = StragglerModel().evaluate(job, {2: 4})
        assert outcome.per_worker_rate == pytest.approx(4.0)
        assert outcome.straggler_workers == 0

    def test_full_sync_pins_to_slowest(self, job):
        outcome = StragglerModel(sync_fraction=1.0).evaluate(job, {0: 2, 2: 2})
        assert outcome.per_worker_rate == pytest.approx(2.0)
        assert outcome.straggler_workers == 2

    def test_partial_sync_blends(self, job):
        outcome = StragglerModel(sync_fraction=0.5).evaluate(job, {0: 2, 2: 2})
        # 0.5 * slowest(2.0) + 0.5 * average(3.0) = 2.5
        assert outcome.per_worker_rate == pytest.approx(2.5)

    def test_zero_sync_uses_native_average(self, job):
        outcome = StragglerModel(sync_fraction=0.0).evaluate(job, {0: 1, 1: 1})
        assert outcome.per_worker_rate == pytest.approx(2.5)
        # workers are still counted as affected (they span types)
        assert outcome.straggler_workers == 1

    def test_empty_assignment_rejected(self, job):
        with pytest.raises(SimulationError):
            StragglerModel().evaluate(job, {})

    def test_invalid_sync_fraction(self):
        with pytest.raises(SimulationError):
            StragglerModel(sync_fraction=1.5)


class TestNetworkModel:
    def test_single_host_no_penalty(self):
        assert NetworkModel().factor(1) == 1.0
        assert NetworkModel().factor(1, other_cross_host_jobs=10) == 1.0

    def test_penalty_grows_with_span(self):
        model = NetworkModel()
        assert model.factor(3) < model.factor(2) < 1.0

    def test_penalty_grows_with_contenders(self):
        model = NetworkModel()
        assert model.factor(2, other_cross_host_jobs=4) < model.factor(2, 0)

    def test_penalty_floor(self):
        model = NetworkModel(span_cost=10.0, max_penalty=0.4)
        assert model.factor(5) == pytest.approx(0.6)

    def test_zero_span_rejected(self):
        with pytest.raises(SimulationError):
            NetworkModel().factor(0)

    def test_negative_costs_rejected(self):
        with pytest.raises(SimulationError):
            NetworkModel(span_cost=-0.1)

    def test_bad_max_penalty_rejected(self):
        with pytest.raises(SimulationError):
            NetworkModel(max_penalty=1.0)

    def test_round_factors_counts_other_jobs(self):
        model = NetworkModel()
        factors = model.round_factors([1, 2, 2])
        assert factors[0] == 1.0
        # each cross-host job sees exactly one *other* cross-host job
        assert factors[1] == pytest.approx(model.factor(2, 1))
        assert factors[1] == factors[2]
