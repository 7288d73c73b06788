"""Weights as multiplicities against the replicated program they replace.

The live allocators solve Eq. 9/10 over distinct rows with multiplicities;
``reference_weighted.py`` keeps §4.2.3's literally replicated program and
the parent's builders.  Same objective to 1e-9, the weighted guarantees on
the (tenant, job type) rows, and — where nothing is weighted or repeated —
the very arrays the parent handed to HiGHS.
"""

import numpy as np
import pytest

from reference_weighted import (
    parent_check_pareto_efficiency,
    parent_coop_form,
    parent_noncoop_form,
    replica_counts,
    replicated_optimum,
)
from repro.cluster import Tenant, make_job
from repro.core import (
    CooperativeOEF,
    JobLevelOEF,
    JobTypeSpec,
    NonCooperativeOEF,
    ProblemInstance,
    SpeedupMatrix,
    TenantSpec,
    WeightedOEF,
    check_envy_freeness,
    check_pareto_efficiency,
    check_sharing_incentive,
    cooperative,
    noncooperative,
)
from repro.core.allocation import Allocation
from repro.exceptions import InfeasibleError
from repro.workloads.generator import random_instance

MODES = {"cooperative": "envy_free", "noncooperative": "equal_throughput"}


def _profile(rng, num_types):
    return np.concatenate([[1.0], 1.0 + np.sort(rng.uniform(0.1, 3.0, num_types - 1))])


def _weighted_tenants(seed):
    """2-5 tenants, 1-2 job types each from a pool of four profiles.

    Even seeds weigh in integers, odd seeds in eighths; either way a row's
    weight is ``units / 8`` or ``units`` for a small integer, so the
    replicated oracle stays a few dozen rows.
    """
    rng = np.random.default_rng(seed)
    num_types = int(rng.integers(2, 5))
    pool = [_profile(rng, num_types) for _ in range(4)]
    tenants = []
    for index in range(int(rng.integers(2, 6))):
        picks = rng.choice(len(pool), size=int(rng.integers(1, 3)), replace=False)
        units = int(rng.integers(1, 6)) * len(picks)
        tenants.append(
            TenantSpec.of(
                f"t{index}",
                [JobTypeSpec.of(f"p{pick}", pool[pick]) for pick in picks],
                weight=float(units) if seed % 2 == 0 else units / 8,
            )
        )
    return tenants, rng.uniform(1.0, 8.0, num_types)


def _spy_on_forms(monkeypatch, module):
    forms = []
    original = module.solve_form

    def spy(form, **kwargs):
        forms.append(form)
        return original(form, **kwargs)

    monkeypatch.setattr(module, "solve_form", spy)
    return forms


class TestAgainstTheReplicatedProgram:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(200))
    def test_same_optimum_and_the_weighted_guarantees(self, seed, mode):
        tenants, capacities = _weighted_tenants(seed)
        merged = WeightedOEF(mode=mode).allocate(tenants, capacities)
        rows, weights = merged.expanded, merged.weights

        oracle = replicated_optimum(
            rows.instance.speedups.values, replica_counts(weights), capacities, mode
        )
        assert merged.total_efficiency() == pytest.approx(oracle, rel=1e-9, abs=1e-9)
        assert np.all(rows.matrix.sum(axis=0) <= capacities * (1 + 1e-9))

        if mode == "cooperative":
            assert check_envy_freeness(rows, weights=weights).satisfied
            assert check_sharing_incentive(rows, weights=weights).satisfied
        else:
            per_unit = rows.user_throughput() / weights
            np.testing.assert_allclose(per_unit, per_unit[0], rtol=1e-7)
        assert check_pareto_efficiency(
            rows, within=MODES[mode], weights=weights
        ).satisfied

        # members of one group hold the group's share in exact weight ratio
        speedups = rows.instance.speedups.values
        for first in range(len(weights)):
            for second in range(first + 1, len(weights)):
                if np.array_equal(speedups[first], speedups[second]):
                    np.testing.assert_allclose(
                        rows.matrix[first] * weights[second],
                        rows.matrix[second] * weights[first],
                        rtol=1e-12,
                        atol=0.0,
                    )

    def test_unweighted_allocate_groups_repeated_rows(self):
        rng = np.random.default_rng(5)
        pool = np.array([_profile(rng, 3) for _ in range(3)])
        rows = pool[[0, 1, 0, 2, 1, 0]]
        instance = ProblemInstance(SpeedupMatrix(rows, normalise=False), [4.0, 3.0, 2.0])
        for mode, allocator in (
            ("cooperative", CooperativeOEF()),
            ("noncooperative", NonCooperativeOEF()),
        ):
            allocation = allocator.allocate(instance)
            oracle = replicated_optimum(pool, [3, 2, 1], instance.capacities, mode)
            assert allocation.total_efficiency() == pytest.approx(oracle, rel=1e-9)
            np.testing.assert_array_equal(allocation.matrix[0], allocation.matrix[2])
            np.testing.assert_array_equal(allocation.matrix[0], allocation.matrix[5])
            np.testing.assert_array_equal(allocation.matrix[1], allocation.matrix[4])


class TestMoreGroupsThanTheThreshold:
    """30 distinct weighted profiles: the cut loop itself sees multiplicities."""

    @pytest.fixture
    def tenants(self):
        rng = np.random.default_rng(30)
        return [
            TenantSpec.single(f"t{index}", _profile(rng, 3), weight=1.0 + index % 3)
            for index in range(30)
        ]

    CAPACITIES = np.array([9.0, 7.0, 5.0])

    def _check(self, merged):
        weights = merged.weights
        oracle = replicated_optimum(
            merged.expanded.instance.speedups.values,
            replica_counts(weights),
            self.CAPACITIES,
            "cooperative",
        )
        assert merged.total_efficiency() == pytest.approx(oracle, rel=1e-9)
        # every pair, not only the cuts the loop happened to add
        assert check_envy_freeness(merged.expanded, weights=weights).satisfied
        assert check_sharing_incentive(merged.expanded, weights=weights).satisfied

    def test_incremental_cut_loop(self, tenants, monkeypatch):
        forms = _spy_on_forms(monkeypatch, cooperative)
        merged = WeightedOEF(mode="cooperative").allocate(tenants, self.CAPACITIES)
        assert forms == []  # never the full program, never a cold round
        self._check(merged)

    def test_cut_loop_matches_the_full_program(self, tenants, monkeypatch):
        cuts = WeightedOEF(mode="cooperative").allocate(tenants, self.CAPACITIES)
        monkeypatch.setattr(CooperativeOEF, "CUTTING_PLANE_THRESHOLD", 10**9)
        forms = _spy_on_forms(monkeypatch, cooperative)
        full = WeightedOEF(mode="cooperative").allocate(tenants, self.CAPACITIES)
        assert [form.a_ub.shape for form in forms] == [(3 + 30 * 29, 90)]
        self._check(full)
        assert cuts.total_efficiency() == pytest.approx(full.total_efficiency(), rel=1e-9)

    def test_cut_round_cap_falls_back_to_the_weighted_full_program(
        self, tenants, monkeypatch
    ):
        monkeypatch.setattr(CooperativeOEF, "MAX_CUT_ROUNDS", 0)
        forms = _spy_on_forms(monkeypatch, cooperative)
        merged = WeightedOEF(mode="cooperative").allocate(tenants, self.CAPACITIES)
        assert [form.a_ub.shape for form in forms] == [(3 + 30 * 29, 90)]
        self._check(merged)


class TestTheRegressionsReplicationHad:
    @pytest.mark.parametrize("module", [cooperative, noncooperative])
    def test_awkward_weights_pose_three_rows(self, module, monkeypatch):
        # 0.875 / 1.3 / 0.77 were 7,187 virtual users and a 21 s solve
        forms = _spy_on_forms(monkeypatch, module)
        rng = np.random.default_rng(7)
        tenants = [
            TenantSpec.single(name, _profile(rng, 4), weight=weight)
            for name, weight in (("a", 0.875), ("b", 1.3), ("c", 0.77))
        ]
        mode = "cooperative" if module is cooperative else "noncooperative"
        merged = WeightedOEF(mode=mode).allocate(tenants, np.full(4, 6.0))
        extra = 0 if module is cooperative else 1  # Eq. 9's T
        assert [form.num_variables for form in forms] == [3 * 4 + extra]
        if module is noncooperative:
            # 1.3 is 1.3, not the 83/64 a bounded denominator made of it
            throughput = merged.tenant_throughput
            assert throughput["b"] / throughput["a"] == pytest.approx(1.3 / 0.875, rel=1e-9)
            assert throughput["c"] / throughput["a"] == pytest.approx(0.77 / 0.875, rel=1e-9)

    def test_job_level_poses_one_row_per_job_type(self, monkeypatch):
        # 3/4/5/7 jobs were LCM-scaled to 1,680 virtual users
        forms = _spy_on_forms(monkeypatch, noncooperative)
        rng = np.random.default_rng(19)
        tenants, job_id = [], 0
        for name, jobs in (("a", 3), ("b", 4), ("c", 5), ("d", 7)):
            tenant = Tenant(name=name)
            for _ in range(jobs):
                job_id += 1
                tenant.add_job(
                    make_job(job_id=job_id, tenant=name, model_name=f"m{job_id}",
                             throughput=_profile(rng, 3), elastic=True)
                )
            tenants.append(tenant)
        allocation = JobLevelOEF("noncooperative").allocate(tenants, [6.0, 5.0, 4.0])
        assert [form.num_variables for form in forms] == [19 * 3 + 1]
        assert forms[0].a_eq.shape[0] == 19
        totals = list(allocation.tenant_throughput.values())
        np.testing.assert_allclose(totals, totals[0], rtol=1e-7)


def _assert_same_form(live, parent):
    np.testing.assert_array_equal(live.c, parent.c)
    np.testing.assert_array_equal(live.b_ub, parent.b_ub)
    assert live.bounds == parent.bounds and live.maximise == parent.maximise
    for name in ("a_ub", "a_eq"):
        ours, theirs = getattr(live, name), getattr(parent, name)
        if theirs is None:
            assert ours is None
            continue
        assert ours.shape == theirs.shape
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(ours, part), getattr(theirs, part))
    if parent.b_eq is None:
        assert live.b_eq is None
    else:
        np.testing.assert_array_equal(live.b_eq, parent.b_eq)


class TestUnitWeightsDistinctRowsAreTheParentsProgram:
    """What keeps ``serve-miss``, ``serve-hot`` and the n <= 24 fingerprints still."""

    @pytest.mark.parametrize("users", range(8, 25))
    def test_standard_forms_are_array_equal(self, users):
        instance = random_instance(users, 4, seed=users)
        groups = instance.grouped()
        assert groups.count == users
        np.testing.assert_array_equal(groups.multiplicity, np.ones(users))
        _assert_same_form(CooperativeOEF()._full_form(groups), parent_coop_form(instance))
        _assert_same_form(
            NonCooperativeOEF()._form(instance.grouped()), parent_noncoop_form(instance)
        )
        shares = np.arange(users * 4, dtype=float).reshape(users, 4)
        np.testing.assert_array_equal(groups.expand(shares), shares)

    @pytest.mark.parametrize("within", [None, "envy_free", "equal_throughput"])
    @pytest.mark.parametrize("users", [3, 8, 13])
    def test_pareto_check_matches_the_linear_program_build(self, users, within):
        instance = random_instance(users, 4, seed=100 + users)
        equal_split = Allocation(
            np.tile(instance.capacities / users, (users, 1)), instance
        )
        for allocation in (
            CooperativeOEF().allocate(instance),
            NonCooperativeOEF().allocate(instance),
            equal_split,
        ):
            report = check_pareto_efficiency(allocation, within=within)
            try:
                expected = parent_check_pareto_efficiency(allocation, within=within)
            except InfeasibleError:
                # outside the domain: nothing in it dominates the allocation
                assert report.satisfied and report.achievable_total == -np.inf
                continue
            assert report.satisfied == expected.satisfied
            assert report.achievable_total == pytest.approx(
                expected.achievable_total, rel=1e-9
            )
            assert report.current_total == expected.current_total
