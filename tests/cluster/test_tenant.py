"""Tenant job management, queues, and profiles."""

import numpy as np
import pytest

from repro.cluster import Tenant, make_job
from repro.exceptions import ValidationError


def _job(job_id, tenant="t", model="vgg16", submit=0.0, workers=1, iters=100.0):
    return make_job(
        job_id=job_id,
        tenant=tenant,
        model_name=model,
        throughput=[1.0, 2.0],
        num_workers=workers,
        total_iterations=iters,
        submit_time=submit,
    )


class TestBasics:
    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            Tenant(name="t", weight=0.0)

    @pytest.mark.parametrize(
        "weight, says", [(float("nan"), "positive"), (float("inf"), "finite"),
                         (-float("inf"), "positive")]
    )
    def test_non_finite_weights_are_refused_where_they_enter(self, weight, says):
        with pytest.raises(ValidationError, match=f"weight must be {says}"):
            Tenant(name="t", weight=weight)

    def test_job_ownership_validated_on_init(self):
        with pytest.raises(ValidationError):
            Tenant(name="t", jobs=[_job(1, tenant="someone-else")])

    def test_add_job_validates_owner(self):
        tenant = Tenant(name="t")
        with pytest.raises(ValidationError):
            tenant.add_job(_job(1, tenant="other"))

    def test_active_jobs_filters_finished(self):
        tenant = Tenant(name="t", jobs=[_job(1), _job(2)])
        tenant.jobs[0].advance(0.0, 1000.0, 1000.0)
        assert [job.job_id for job in tenant.active_jobs()] == [2]

    def test_active_jobs_respects_submit_time(self):
        tenant = Tenant(name="t", jobs=[_job(1), _job(2, submit=500.0)])
        assert [job.job_id for job in tenant.active_jobs(now=0.0)] == [1]
        assert len(tenant.active_jobs(now=500.0)) == 2


class TestQueue:
    def test_starvation_priority(self):
        tenant = Tenant(name="t", jobs=[_job(1), _job(2)])
        tenant.jobs[1].starve()
        queue = tenant.runnable_queue()
        assert queue[0].job_id == 2

    def test_tie_break_by_submit_then_id(self):
        tenant = Tenant(name="t", jobs=[_job(3), _job(1), _job(2, submit=0.0)])
        queue = tenant.runnable_queue(now=0.0)
        assert [job.job_id for job in queue] == [1, 2, 3]


class TestProfiles:
    def test_job_types_grouping(self):
        tenant = Tenant(
            name="t",
            jobs=[_job(1, model="vgg16"), _job(2, model="lstm"), _job(3, model="vgg16")],
        )
        groups = tenant.job_types()
        assert set(groups) == {"vgg16", "lstm"}
        assert len(groups["vgg16"]) == 2

    def test_true_speedup_profile(self):
        tenant = Tenant(name="t", jobs=[_job(1)])
        profile = tenant.true_speedup_profile()
        np.testing.assert_allclose(profile["vgg16"], [1.0, 2.0])

    def test_min_worker_demand(self):
        tenant = Tenant(name="t", jobs=[_job(1, workers=4), _job(2, workers=2)])
        assert tenant.min_worker_demand() == 2

    def test_min_worker_demand_empty(self):
        tenant = Tenant(name="t")
        assert tenant.min_worker_demand() == 0


class TestCompletion:
    def test_all_done(self):
        tenant = Tenant(name="t", jobs=[_job(1, iters=1.0)])
        assert not tenant.all_done()
        tenant.jobs[0].advance(0.0, 10.0, 10.0)
        assert tenant.all_done()

    def test_all_done_waits_for_future_submissions(self):
        tenant = Tenant(name="t", jobs=[_job(1, iters=1.0), _job(2, submit=900.0)])
        tenant.jobs[0].advance(0.0, 10.0, 10.0)
        assert not tenant.all_done(now=0.0)  # job 2 still coming

    def test_completed_jobs(self):
        tenant = Tenant(name="t", jobs=[_job(1, iters=1.0), _job(2)])
        tenant.jobs[0].advance(0.0, 10.0, 10.0)
        assert [job.job_id for job in tenant.completed_jobs()] == [1]
