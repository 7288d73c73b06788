"""Profiling agent: exact profiles, random error, deterministic bias."""

import numpy as np
import pytest

from repro.cluster import ProfilingAgent, Tenant, make_job
from repro.cluster import profiler
from repro.exceptions import ValidationError
from repro.scenarios import ScenarioRunner, make_scenario
from repro.workloads.generator import TenantGenerator


@pytest.fixture
def tenant():
    job = make_job(
        job_id=1,
        tenant="t",
        model_name="lstm",
        throughput=[4.0, 6.0, 8.6],
    )
    return Tenant(name="t", jobs=[job])


class TestValidation:
    def test_error_rate_bounds(self):
        with pytest.raises(ValidationError):
            ProfilingAgent(error_rate=-0.1)
        with pytest.raises(ValidationError):
            ProfilingAgent(error_rate=1.0)

    def test_bias_bounds(self):
        with pytest.raises(ValidationError):
            ProfilingAgent(deterministic_bias=-1.0)


class TestProfiles:
    def test_zero_error_returns_truth(self, tenant):
        agent = ProfilingAgent(error_rate=0.0)
        profile = agent.profile_tenant(tenant)
        np.testing.assert_allclose(profile["lstm"], [1.0, 1.5, 2.15])

    def test_error_bounded(self, tenant):
        agent = ProfilingAgent(error_rate=0.2, seed=1)
        profile = agent.profile_tenant(tenant)["lstm"]
        truth = np.array([1.0, 1.5, 2.15])
        # entry-wise within 20% (after monotone repair, entries only grow)
        assert np.all(profile <= truth * 1.2 + 1e-9)
        assert np.all(profile >= truth * 0.8 - 1e-9)

    def test_profile_stays_monotone(self, tenant):
        agent = ProfilingAgent(error_rate=0.3, seed=5)
        for _ in range(10):
            profile = agent.profile_tenant(tenant)["lstm"]
            assert np.all(np.diff(profile) >= -1e-12)

    def test_profile_normalised(self, tenant):
        agent = ProfilingAgent(error_rate=0.2, seed=2)
        profile = agent.profile_tenant(tenant)["lstm"]
        assert profile[0] == pytest.approx(1.0)

    def test_deterministic_bias(self, tenant):
        agent = ProfilingAgent(deterministic_bias=0.1)
        profile = agent.profile_tenant(tenant)["lstm"]
        np.testing.assert_allclose(profile, [1.0, 1.5 * 1.1, 2.15 * 1.1])

    def test_negative_bias(self, tenant):
        agent = ProfilingAgent(deterministic_bias=-0.1)
        profile = agent.profile_tenant(tenant)["lstm"]
        np.testing.assert_allclose(profile, [1.0, 1.35, 1.935])

    def test_seed_reproducibility(self, tenant):
        first = ProfilingAgent(error_rate=0.2, seed=9).profile_tenant(tenant)
        second = ProfilingAgent(error_rate=0.2, seed=9).profile_tenant(tenant)
        np.testing.assert_allclose(first["lstm"], second["lstm"])

    def test_multiple_job_types_profiled_separately(self):
        jobs = [
            make_job(job_id=1, tenant="t", model_name="a", throughput=[1.0, 2.0]),
            make_job(job_id=2, tenant="t", model_name="b", throughput=[1.0, 3.0]),
        ]
        tenant = Tenant(name="t", jobs=jobs)
        profile = ProfilingAgent().profile_tenant(tenant)
        assert set(profile) == {"a", "b"}
        np.testing.assert_allclose(profile["b"], [1.0, 3.0])


class TestProfilesDoNotAliasJobState:
    """Generator-built jobs of one model share one speedup array; nothing
    handed out can be written through to it."""

    @pytest.fixture
    def tenants(self):
        generator = TenantGenerator(seed=4, hyperparameter_jitter=0.3)
        return [generator.make_tenant(f"t{i}", model_name="lstm") for i in range(2)]

    def test_the_jobs_share_one_read_only_array(self, tenants):
        arrays = {id(job.speedups) for tenant in tenants for job in tenant.jobs}
        assert len(arrays) == 1
        assert not tenants[0].jobs[0].speedups.flags.writeable

    def test_writing_through_a_true_profile_raises(self, tenants):
        profile = tenants[0].true_speedup_profile()["lstm"]
        before = profile.copy()
        with pytest.raises(ValueError):
            profile[1] = 99.0
        with pytest.raises(ValueError):
            profile *= 2.0
        for tenant in tenants:
            for job in tenant.jobs:
                assert job.speedups.tobytes() == before.tobytes()

    def test_exact_measurements_are_read_only(self, tenants):
        measured = ProfilingAgent().profile_tenant(tenants[0])["lstm"]
        truth = tenants[0].jobs[0].speedups
        before = truth.copy()
        assert measured is not truth and measured.tobytes() == truth.tobytes()
        with pytest.raises(ValueError):
            measured[1] = 99.0
        with pytest.raises(ValueError):
            measured *= 2.0
        assert truth.tobytes() == before.tobytes()
        assert measured.tobytes() == before.tobytes()

    def test_noisy_profiling_draws_afresh_on_every_call(self, tenant):
        agent = ProfilingAgent(error_rate=0.2, seed=7)
        first, second = (agent.profile_tenant(tenant)["lstm"] for _ in range(2))
        assert first is not second and not np.array_equal(first, second)
        assert first.flags.writeable and second.flags.writeable
        # a same-seed agent reproduces the pair: one rng draw per call
        twin = ProfilingAgent(error_rate=0.2, seed=7)
        np.testing.assert_array_equal(twin.profile_tenant(tenant)["lstm"], first)
        np.testing.assert_array_equal(twin.profile_tenant(tenant)["lstm"], second)

    def test_distorted_measurements_are_writable_and_per_tenant(self, tenants):
        agent = ProfilingAgent(error_rate=0.2, seed=3)
        first, second = (agent.profile_tenant(t)["lstm"] for t in tenants)
        assert first.flags.writeable and second.flags.writeable
        assert not np.array_equal(first, second)
        truth = tenants[0].jobs[0].speedups.copy()
        first[1:] = 7.0
        assert not np.array_equal(second[1:], 7.0)
        for tenant in tenants:
            for job in tenant.jobs:
                assert job.speedups.tobytes() == truth.tobytes()


class TestExactProfilesOnce:
    """Exact profiling normalises each distinct truth vector once."""

    def test_a_steady_replay_normalises_each_vector_once(self, monkeypatch):
        # deterministic perf guard: counts, not clocks
        calls = []
        normalised = profiler._normalised
        monkeypatch.setattr(
            profiler,
            "_normalised",
            lambda vector: calls.append(vector.tobytes()) or normalised(vector),
        )
        runner = ScenarioRunner(
            make_scenario("steady", seed=1, rounds=4, duration_fraction=2.0)
        )
        simulator = runner.build_simulator()
        metrics = simulator.run()
        distinct = {
            job.speedups.tobytes()
            for tenant in simulator.tenants.values()
            for job in tenant.jobs
        }
        profiled = sum(len(r.estimated) for r in metrics.rounds)
        assert profiled == 4 * len(simulator.tenants) > len(distinct)
        assert sorted(calls) == sorted(distinct)

    def test_equal_content_shares_one_entry(self):
        # keyed by bytes, not identity: a fresh array with the same
        # content is served the cached measurement
        agent = ProfilingAgent()
        first = Tenant("a", jobs=[make_job(1, "a", "m", [2.0, 3.0, 5.0])])
        second = Tenant("b", jobs=[make_job(2, "b", "m", [2.0, 3.0, 5.0])])
        assert first.jobs[0].speedups is not second.jobs[0].speedups
        one = agent.profile_tenant(first)["m"]
        assert agent.profile_tenant(second)["m"] is one
        other = Tenant("c", jobs=[make_job(3, "c", "m", [2.0, 3.0, 4.0])])
        np.testing.assert_array_equal(agent.profile_tenant(other)["m"], [1.0, 1.5, 2.0])
