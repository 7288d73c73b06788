"""Job-level fairness with elastic training (§8 extension)."""

import numpy as np
import pytest

from repro.cluster import Tenant, make_job
from repro.core import JobLevelOEF
from repro.exceptions import ValidationError
from round_views import place_grants


def _tenant(name, models_speedups, weight=1.0):
    """models_speedups: list of (model, speedup vector)."""
    tenant = Tenant(name=name, weight=weight)
    for index, (model, speedups) in enumerate(models_speedups):
        tenant.add_job(
            make_job(
                job_id=abs(hash((name, index))) % 100_000,
                tenant=name,
                model_name=model,
                throughput=speedups,
                elastic=True,
            )
        )
    return tenant


CAPACITIES = [4.0, 4.0]


class TestJobLevelAllocation:
    def test_jobs_within_tenant_get_equal_throughput(self):
        tenant = _tenant("a", [("m", [1, 2]), ("m2", [1, 2])])
        other = _tenant("b", [("n", [1, 4])])
        allocation = JobLevelOEF("noncooperative").allocate(
            [tenant, other], CAPACITIES
        )
        jobs = [
            value
            for (name, _job_id), value in allocation.job_throughput.items()
            if name == "a"
        ]
        assert jobs[0] == pytest.approx(jobs[1], rel=1e-5)

    def test_tenant_totals_equal_under_noncoop(self):
        tenant = _tenant("a", [("m", [1, 2]), ("m2", [1, 3])])
        other = _tenant("b", [("n", [1, 4])])
        allocation = JobLevelOEF("noncooperative").allocate(
            [tenant, other], CAPACITIES
        )
        assert allocation.tenant_throughput["a"] == pytest.approx(
            allocation.tenant_throughput["b"], rel=1e-5
        )

    def test_weights_respected_at_tenant_level(self):
        heavy = _tenant("a", [("m", [1, 2])], weight=2.0)
        light = _tenant("b", [("n", [1, 3])], weight=1.0)
        allocation = JobLevelOEF("noncooperative").allocate(
            [heavy, light], CAPACITIES
        )
        assert allocation.tenant_throughput["a"] == pytest.approx(
            2 * allocation.tenant_throughput["b"], rel=1e-5
        )

    def test_job_shares_sum_to_tenant_share(self):
        tenant = _tenant("a", [("m", [1, 2]), ("m2", [1, 3])])
        other = _tenant("b", [("n", [1, 4])])
        allocation = JobLevelOEF("cooperative").allocate([tenant, other], CAPACITIES)
        job_sum = np.sum(
            [
                share
                for (name, _job_id), share in allocation.job_shares.items()
                if name == "a"
            ],
            axis=0,
        )
        np.testing.assert_allclose(
            job_sum, allocation.tenant_shares["a"], rtol=1e-8
        )

    def test_finished_jobs_excluded(self):
        tenant = _tenant("a", [("m", [1, 2]), ("m2", [1, 3])])
        tenant.jobs[0].advance(0.0, 1e9, 1e9)  # finish it
        other = _tenant("b", [("n", [1, 4])])
        allocation = JobLevelOEF().allocate([tenant, other], CAPACITIES)
        a_jobs = [key for key in allocation.job_shares if key[0] == "a"]
        assert len(a_jobs) == 1

    def test_tenant_without_jobs_rejected(self):
        empty = Tenant(name="empty")
        other = _tenant("b", [("n", [1, 4])])
        with pytest.raises(ValidationError):
            JobLevelOEF().allocate([empty, other], CAPACITIES)

    def test_total_efficiency_helper(self):
        tenants = [
            _tenant("a", [("m", [1, 2])]),
            _tenant("b", [("n", [1, 4])]),
        ]
        allocation = JobLevelOEF().allocate(tenants, CAPACITIES)
        assert allocation.total_efficiency() == pytest.approx(
            sum(allocation.tenant_throughput.values())
        )


class TestElasticJobs:
    def test_elastic_validation(self):
        with pytest.raises(ValidationError):
            make_job(
                job_id=1, tenant="t", model_name="m", throughput=[1, 2],
                num_workers=2, elastic=True, min_workers=3,
            )

    def test_elastic_job_shrinks_to_budget(self):
        from repro.cluster import Placer, paper_cluster

        topology = paper_cluster()
        placer = Placer(topology)
        tenant = Tenant(name="t")
        tenant.add_job(
            make_job(
                job_id=1, tenant="t", model_name="m",
                throughput=[1.0, 1.5, 2.0], num_workers=8, elastic=True,
            )
        )
        result = place_grants(placer, {"t": np.array([0, 0, 3])}, {"t": tenant}, 0.0)
        assert len(result.placements) == 1
        assert len(result.placements[0].devices) == 3

    def test_rigid_job_starves_on_same_budget(self):
        from repro.cluster import Placer, paper_cluster

        topology = paper_cluster()
        placer = Placer(topology)
        tenant = Tenant(name="t")
        tenant.add_job(
            make_job(
                job_id=1, tenant="t", model_name="m",
                throughput=[1.0, 1.5, 2.0], num_workers=8, elastic=False,
            )
        )
        result = place_grants(placer, {"t": np.array([0, 0, 3])}, {"t": tenant}, 0.0)
        assert not result.placements
        assert len(result.starved_jobs) == 1

    def test_elastic_min_workers_respected(self):
        from repro.cluster import Placer, paper_cluster

        topology = paper_cluster()
        placer = Placer(topology)
        tenant = Tenant(name="t")
        tenant.add_job(
            make_job(
                job_id=1, tenant="t", model_name="m",
                throughput=[1.0, 1.5, 2.0], num_workers=8,
                elastic=True, min_workers=4,
            )
        )
        result = place_grants(placer, {"t": np.array([0, 0, 3])}, {"t": tenant}, 0.0)
        assert not result.placements

    def test_elastic_simulation_end_to_end(self):
        from repro.cluster import (
            ClusterSimulator,
            ElasticOEFScheduler,
            SimulationConfig,
            paper_cluster,
        )
        from repro.workloads import TenantGenerator

        generator = TenantGenerator(seed=2)
        tenants = []
        for index, model in enumerate(["vgg16", "lstm", "resnet50"]):
            tenant = Tenant(name=f"t{index}")
            for j in range(3):
                tenant.add_job(
                    make_job(
                        job_id=index * 10 + j,
                        tenant=tenant.name,
                        model_name=model,
                        throughput=generator._job_throughput(model),
                        num_workers=8,
                        elastic=True,
                    )
                )
            tenants.append(tenant)
        simulator = ClusterSimulator(
            paper_cluster(),
            tenants,
            ElasticOEFScheduler("noncooperative"),
            config=SimulationConfig(num_rounds=4, stop_when_idle=False),
        )
        metrics = simulator.run()
        assert metrics.mean_total_actual() > 0
        # elastic jobs consume every granted device
        assert metrics.rounds[0].devices_used == 24
