"""Property-based tests for the placer — the most stateful subsystem.

Invariants fuzzed over random grants and job mixes:

* no physical device is ever bound to two jobs in one round;
* a tenant's bound devices never exceed its grant, type by type;
* every selected job receives exactly its worker count (rigid) or a count
  within its elastic bounds;
* every active job is either placed or reported starved;
* straggler counts only arise for cross-type placements.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Placer, Tenant, make_job, paper_cluster
from round_views import place_grants


#: hypothesis-heavy: deselect with `pytest -m 'not slow'`
pytestmark = pytest.mark.slow
_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def placement_scenarios(draw):
    num_tenants = draw(st.integers(1, 4))
    tenants = {}
    grants = {}
    job_id = 0
    remaining = np.array([8, 8, 8])
    for index in range(num_tenants):
        name = f"t{index}"
        tenant = Tenant(name=name)
        num_jobs = draw(st.integers(1, 3))
        for _ in range(num_jobs):
            workers = draw(st.sampled_from([1, 1, 2, 4]))
            elastic = draw(st.booleans())
            tenant.add_job(
                make_job(
                    job_id=job_id,
                    tenant=name,
                    model_name="m",
                    throughput=[1.0, 1.5, 2.0],
                    num_workers=workers,
                    elastic=elastic,
                )
            )
            job_id += 1
        grant = np.array(
            [draw(st.integers(0, int(remaining[j]))) for j in range(3)]
        )
        remaining = remaining - grant
        tenants[name] = tenant
        grants[name] = grant
    oef = draw(st.sampled_from([True, False]))
    return tenants, grants, oef


class TestPlacerInvariants:
    @_SETTINGS
    @given(placement_scenarios())
    def test_all_invariants(self, scenario):
        tenants, grants, oef = scenario
        topology = paper_cluster()
        placer = Placer(topology, oef=oef)
        result = place_grants(placer, grants, tenants, 0.0)

        # 1. no device double-bound
        device_ids = [
            device.device_id
            for placement in result.placements
            for device in placement.devices
        ]
        assert len(device_ids) == len(set(device_ids))

        # 2. per-tenant, per-type usage within the grant
        usage = {name: np.zeros(3, dtype=int) for name in tenants}
        for placement in result.placements:
            tenant_usage = usage[placement.job.tenant]
            for device in placement.devices:
                tenant_usage[device.gpu_type.rank] += 1
        for name, used in usage.items():
            assert np.all(used <= grants[name])

        # 3. worker counts respect job requirements
        for placement in result.placements:
            count = len(placement.devices)
            job = placement.job
            if job.elastic:
                assert job.min_workers <= count <= job.num_workers
            else:
                assert count == job.num_workers

        # 4. every active job is placed or starved, never lost
        placed_ids = {placement.job.job_id for placement in result.placements}
        starved_ids = {job.job_id for job in result.starved_jobs}
        all_ids = {
            job.job_id
            for tenant in tenants.values()
            for job in tenant.active_jobs(0.0)
        }
        assert placed_ids | starved_ids == all_ids
        assert not placed_ids & starved_ids

        # 5. stragglers only from cross-type placements
        for placement in result.placements:
            if len(placement.type_counts) == 1:
                assert placement.straggler_workers == 0
            else:
                assert placement.straggler_workers >= 1

        # 6. type counts consistent with bound devices
        for placement in result.placements:
            bound = Counter(device.gpu_type.rank for device in placement.devices)
            assert dict(bound) == placement.type_counts

    @_SETTINGS
    @given(placement_scenarios())
    def test_adjacency_under_oef_policy(self, scenario):
        # The OEF placer serves a tenant's jobs largest-first; a job's
        # placement must be contiguous whenever a contiguous window of
        # the budget *remaining at its turn* could cover it.  (Checking
        # against the whole original grant per job is unsatisfiable: two
        # jobs can each have an original-grant window yet be impossible
        # to place contiguously at once, e.g. workers 4+2 on [5, 0, 1].)
        tenants, grants, _oef = scenario
        topology = paper_cluster()
        placer = Placer(topology)
        result = place_grants(placer, grants, tenants, 0.0)
        by_tenant: dict = {}
        for placement in result.placements:
            by_tenant.setdefault(placement.job.tenant, []).append(placement)
        for tenant, placements in by_tenant.items():
            budget = np.asarray(grants[tenant], dtype=int).copy()
            placements.sort(key=lambda p: (-len(p.devices), p.job.job_id))
            for placement in placements:
                ranks = sorted(placement.type_counts)
                workers = len(placement.devices)
                window_exists = any(
                    budget[low : high + 1].sum() >= workers
                    and np.all(budget[low : high + 1] > 0)
                    for low in range(3)
                    for high in range(low, 3)
                )
                if window_exists:
                    assert ranks == list(range(ranks[0], ranks[-1] + 1))
                for rank, count in placement.type_counts.items():
                    budget[rank] -= count
