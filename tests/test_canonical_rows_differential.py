"""Canonical speedup rows against the per-job rows they replace.

A generator-built job carries its model's one speedup vector, where a job
used to derive its own as ``true_throughput / true_throughput[0]``.  Jitter
scales the throughput, so that division lands one or two ulps away from the
model's vector and same-model tenants stopped folding into one LP group.
:func:`per_job_profile` keeps the old derivation as the reference: every
cooperative and non-cooperative program a ``tenant-churn`` replay poses is
re-solved over the per-job rows, and the two optima must agree to 1e-9.
"""

import numpy as np
import pytest

from repro.cluster.profiler import ProfilingAgent
from repro.core import (
    CooperativeOEF,
    JobTypeSpec,
    ProblemInstance,
    TenantSpec,
    WeightedOEF,
)
from repro.core.virtual import VirtualUserExpansion
from repro.scenarios import ScenarioRunner, make_scenario

#: the bench's ``replay-churn`` smoke shape
SMOKE = dict(
    rounds=32, resident_tenants=6, churn_tenants=10, jobs_per_tenant=2,
    lifetime_fraction=0.2,
)
SCHEDULERS = {"oef-coop": "cooperative", "oef-noncoop": "noncooperative"}


def per_job_profile(jobs):
    """The pre-change ``Tenant.true_speedup_profile``: each family's first
    active job's own division, not the model's vector."""
    profiles = {}
    for job in jobs:
        own = job.true_throughput / job.true_throughput[0]
        profiles.setdefault(job.model_name, own)
    return profiles


def group_count(specs, capacities):
    expansion = VirtualUserExpansion(specs)
    instance = ProblemInstance(expansion.expanded_matrix(), capacities)
    return instance.grouped(expansion.weights).count


def _capture(monkeypatch, scheduler, seed):
    """Each LP input of one replay, with per-job rows: every cold round hands
    the scheduler's rows to ``WeightedOEF.allocate`` exactly once."""
    reference, captured = {}, []
    profile_tenant = ProfilingAgent.profile_tenant
    allocate = WeightedOEF.allocate

    def profile_spy(self, tenant, now=None, active=None):
        jobs = tenant.active_jobs(now) if active is None else active
        reference[tenant.name] = per_job_profile(jobs)
        return profile_tenant(self, tenant, now, active)

    def allocate_spy(self, tenants, capacities, gpu_types=None):
        specs = [
            TenantSpec.of(
                name, [JobTypeSpec.of(job, row) for job, row in jobs], weight=weight
            )
            for name, weight, jobs in tenants
        ]
        rows = {spec.name: reference[spec.name] for spec in specs}
        captured.append((specs, np.array(capacities), rows))
        return allocate(self, tenants, capacities, gpu_types)

    monkeypatch.setattr(ProfilingAgent, "profile_tenant", profile_spy)
    monkeypatch.setattr(WeightedOEF, "allocate", allocate_spy)
    result = ScenarioRunner(
        make_scenario("tenant-churn", seed=seed, **SMOKE), scheduler
    ).run()
    monkeypatch.undo()
    assert len(captured) == result.cold_solves
    return captured


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_per_job_rows_reach_the_same_objective(monkeypatch, scheduler, seed):
    captured = _capture(monkeypatch, scheduler, seed)
    assert captured
    solver = WeightedOEF(mode=SCHEDULERS[scheduler])
    split = 0
    for specs, capacities, rows in captured:
        noisy = [
            TenantSpec.of(
                spec.name,
                [
                    JobTypeSpec.of(jt.name, rows[spec.name][jt.name])
                    for jt in spec.job_types
                ],
                weight=spec.weight,
            )
            for spec in specs
        ]
        for spec, other in zip(specs, noisy):
            for canonical, per_job in zip(spec.job_types, other.job_types):
                np.testing.assert_allclose(
                    per_job.speedups, canonical.speedups, rtol=1e-12
                )
        split += group_count(noisy, capacities) > group_count(specs, capacities)
        want = solver.allocate(noisy, capacities).total_efficiency()
        got = solver.allocate(specs, capacities).total_efficiency()
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    # the reference really is a different program on this replay
    assert split > 0


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_a_churn_lp_has_at_most_one_group_per_model(monkeypatch, seed):
    """Structural: ``tenant-churn`` poses Eq. 10 over its models, not its jobs."""
    current, lps = {}, []
    allocate, solve_full = WeightedOEF.allocate, CooperativeOEF._solve_full

    def allocate_spy(self, tenants, capacities, gpu_types=None):
        current["models"] = {job for _name, _weight, jobs in tenants for job, _ in jobs}
        current["tenants"] = len(tenants)
        return allocate(self, tenants, capacities, gpu_types)

    def solve_full_spy(self, groups):
        lps.append((groups.count, current["models"], current["tenants"]))
        return solve_full(self, groups)

    def no_cuts(self, groups, tol=1e-7):
        raise AssertionError(f"{groups.count} groups took the cutting-plane path")

    monkeypatch.setattr(WeightedOEF, "allocate", allocate_spy)
    monkeypatch.setattr(CooperativeOEF, "_solve_full", solve_full_spy)
    monkeypatch.setattr(CooperativeOEF, "_solve_cutting_plane", no_cuts)
    ScenarioRunner(make_scenario("tenant-churn", seed=seed, **SMOKE), "oef-coop").run()
    assert lps
    for count, models, _tenants in lps:
        assert count <= len(models)
    # some round had more tenants than models, so folding was exercised
    assert any(tenants > len(models) for _count, models, tenants in lps)
