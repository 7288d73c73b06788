"""Philly-like trace generator: shapes and calibration."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.workloads import PhillyTraceConfig, PhillyTraceGenerator


@pytest.fixture
def generator():
    config = PhillyTraceConfig(
        num_tenants=12, jobs_per_tenant_mean=5.0,
        window_seconds=6 * 3600.0, contention=0.8, seed=4,
    )
    return PhillyTraceGenerator(config=config, cluster_devices=24.0)


class TestConfigValidation:
    def test_bad_tenant_count(self):
        with pytest.raises(ValidationError):
            PhillyTraceConfig(num_tenants=0)

    def test_bad_jobs_mean(self):
        with pytest.raises(ValidationError):
            PhillyTraceConfig(jobs_per_tenant_mean=0.0)

    def test_bad_window(self):
        with pytest.raises(ValidationError):
            PhillyTraceConfig(window_seconds=-1.0)

    def test_bad_contention(self):
        with pytest.raises(ValidationError):
            PhillyTraceConfig(contention=0.0)


class TestSampling:
    def test_durations_positive_and_heavy_tailed(self, generator):
        durations = np.array([generator.sample_duration() for _ in range(500)])
        assert np.all(durations > 0)
        # heavy tail: max far above median
        assert durations.max() > 5 * np.median(durations)

    def test_workers_distribution(self, generator):
        workers = np.array([generator.sample_workers() for _ in range(600)])
        assert set(np.unique(workers)) <= {1, 2, 4, 8}
        # single-GPU jobs dominate (Philly shape)
        assert np.mean(workers == 1) > 0.6

    def test_arrivals_sorted_and_start_at_zero(self, generator):
        arrivals = generator.sample_arrivals()
        assert arrivals[0] == 0.0
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals[-1] <= generator.config.window_seconds / 2


class TestTraceAssembly:
    def test_tenant_count(self, generator):
        tenants = generator.generate()
        assert len(tenants) == 12

    def test_contention_calibrated(self, generator):
        tenants = generator.generate()
        # offered GPU-seconds / (capacity x window): the realised contention
        offered = sum(
            job.total_iterations / job.true_throughput[0] * job.num_workers
            for tenant in tenants
            for job in tenant.jobs
        )
        realised = offered / (
            generator.cluster_devices * generator.config.window_seconds
        )
        assert realised == pytest.approx(0.8, rel=0.15)

    def test_jobs_inherit_arrival_time(self, generator):
        tenants = generator.generate()
        for tenant in tenants:
            for job in tenant.jobs:
                assert job.submit_time == tenant.arrival_time

    def test_reproducible_with_same_seed(self):
        config = PhillyTraceConfig(num_tenants=5, seed=7)
        first = PhillyTraceGenerator(config=config).generate()
        second = PhillyTraceGenerator(config=config).generate()
        assert [len(t.jobs) for t in first] == [len(t.jobs) for t in second]
        np.testing.assert_allclose(
            [t.arrival_time for t in first], [t.arrival_time for t in second]
        )

    def test_minimum_duration_floor(self, generator):
        tenants = generator.generate()
        for tenant in tenants:
            for job in tenant.jobs:
                assert job.total_iterations / job.true_throughput[0] >= 60.0
