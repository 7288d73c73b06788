"""Instance and tenant generators."""

import numpy as np
import pytest

from repro.cluster import ProfilingAgent
from repro.core import ProblemInstance, SpeedupMatrix
from repro.exceptions import ValidationError
from repro.workloads import speedup_vector
from repro.workloads.generator import (
    TenantGenerator,
    log_linear_speedup_matrix,
    random_instance,
    random_speedup_matrix,
    zoo_instance,
)


class TestRandomMatrices:
    def test_rows_monotone_and_normalised(self, rng):
        matrix = random_speedup_matrix(6, 4, rng)
        values = matrix.values
        np.testing.assert_allclose(values[:, 0], 1.0)
        assert np.all(np.diff(values, axis=1) >= 0)

    def test_shapes(self, rng):
        matrix = random_speedup_matrix(3, 5, rng)
        assert matrix.num_users == 3
        assert matrix.num_gpu_types == 5

    def test_bad_sizes_rejected(self, rng):
        with pytest.raises(ValidationError):
            random_speedup_matrix(0, 2, rng)

    def test_log_linear_consistent_steepness(self, rng):
        matrix = log_linear_speedup_matrix(5, 4, rng)
        values = matrix.values
        # for every type pair, the ratio ordering across users is identical
        base_order = np.argsort(values[:, -1])
        for col in range(1, values.shape[1]):
            order = np.argsort(values[:, col])
            np.testing.assert_array_equal(order, base_order)

    def test_random_instance_bundle(self):
        instance = random_instance(4, 3, seed=1, devices_per_type=6.0)
        assert instance.num_users == 4
        np.testing.assert_allclose(instance.capacities, 6.0)

    def test_zoo_instance(self):
        instance = zoo_instance(["vgg16", "lstm"])
        assert instance.num_users == 2
        assert instance.speedups.values[1, -1] > instance.speedups.values[0, -1]


class TestTenantGenerator:
    def test_make_job_duration_calibration(self):
        generator = TenantGenerator(seed=0, hyperparameter_jitter=0.0)
        job = generator.make_job("t", "vgg16", duration_on_slowest=1000.0)
        assert job.total_iterations / job.true_throughput[0] == pytest.approx(1000.0)

    def test_jitter_changes_scale_not_shape(self):
        generator = TenantGenerator(seed=3, hyperparameter_jitter=0.3)
        jobs = [generator.make_job("t", model) for model in ["vgg16", "lstm"] * 4]
        for job in jobs:
            canonical = speedup_vector(job.model_name)
            # byte equality: a last-bit difference splits an LP group
            assert job.speedup_vector.tobytes() == canonical.tobytes()
        assert not np.array_equal(jobs[0].true_throughput, jobs[2].true_throughput)
        # the per-job division would not have given these bytes
        assert any(
            (job.true_throughput / job.true_throughput[0]).tobytes()
            != job.speedup_vector.tobytes()
            for job in jobs
        )

    def test_one_throughput_row_per_model_same_bits(self, monkeypatch):
        import repro.workloads.generator as generator_module
        from repro.workloads.models import throughput_vector

        calls = []

        def counted(model_name, gpu_types):
            calls.append(model_name)
            return throughput_vector(model_name, gpu_types)

        monkeypatch.setattr(generator_module, "throughput_vector", counted)
        generator = TenantGenerator(seed=5, hyperparameter_jitter=0.2)
        jobs = [generator.make_job("t", model) for model in ["vgg16", "lstm"] * 5]
        assert calls == ["vgg16", "lstm"]
        # the row times the job's own jitter factor, as per-job rows gave it
        rng = np.random.default_rng(5)
        for job in jobs:
            factor = 1.0 + rng.uniform(-0.2, 0.2)
            expected = throughput_vector(job.model_name, generator.gpu_types) * factor
            assert job.true_throughput.tobytes() == expected.tobytes()

    def test_two_tenants_of_one_model_fold_to_one_group(self):
        generator = TenantGenerator(seed=3, hyperparameter_jitter=0.3)
        tenants = [generator.make_tenant(f"t{i}", model_name="lstm") for i in range(2)]
        profiles = [ProfilingAgent().profile_tenant(t)["lstm"] for t in tenants]
        matrix = SpeedupMatrix(np.vstack(profiles), normalise=False)
        grouped = ProblemInstance(matrix, [4.0, 4.0, 4.0]).grouped()
        assert grouped.count == 1
        np.testing.assert_array_equal(grouped.multiplicity, [2.0])

    def test_job_ids_unique(self):
        generator = TenantGenerator(seed=0)
        tenants = generator.make_population(3, jobs_per_tenant=4)
        ids = [job.job_id for tenant in tenants for job in tenant.jobs]
        assert len(set(ids)) == len(ids)

    def test_make_tenant_job_count_and_model(self):
        generator = TenantGenerator(seed=0)
        tenant = generator.make_tenant("t", model_name="lstm", num_jobs=5)
        assert len(tenant.jobs) == 5
        assert all(job.model_name == "lstm" for job in tenant.jobs)

    def test_unknown_model_rejected(self):
        generator = TenantGenerator(seed=0)
        with pytest.raises(ValidationError):
            generator.make_tenant("t", model_name="bogus")

    def test_population_cycles_models(self):
        generator = TenantGenerator(seed=0)
        tenants = generator.make_population(4, models=["vgg16", "lstm"])
        assert tenants[0].jobs[0].model_name == "vgg16"
        assert tenants[1].jobs[0].model_name == "lstm"
        assert tenants[2].jobs[0].model_name == "vgg16"

    def test_submit_time_propagates(self):
        generator = TenantGenerator(seed=0)
        tenant = generator.make_tenant("t", model_name="rnn", submit_time=500.0)
        assert tenant.arrival_time == 500.0
        assert all(job.submit_time == 500.0 for job in tenant.jobs)
