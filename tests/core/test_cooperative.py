"""Cooperative OEF (Eq. 10): EF + SI + optimal efficiency (+ Theorem 5.2)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import (
    CooperativeOEF,
    ProblemInstance,
    SpeedupMatrix,
    TenantSpec,
    WeightedOEF,
    check_envy_freeness,
    check_pareto_efficiency,
    check_sharing_incentive,
    optimal_efficiency_upper_bound,
)
from repro.core import cooperative
from repro.core.cooperative import EfficiencyMaxAllocator
from repro.workloads.generator import random_instance
from scipy_csr import csr_bytes, to_scipy


class TestPaperExamples:
    def test_section_2_4_optimal_allocation(self, paper_instance):
        # the paper's X*: u1 gets GPU1, u2/u3 split GPU2, E = <1, 1.5, 2>
        allocation = CooperativeOEF().allocate(paper_instance)
        np.testing.assert_allclose(
            allocation.user_throughput(), [1.0, 1.5, 2.0], rtol=1e-6
        )
        assert allocation.total_efficiency() == pytest.approx(4.5)

    def test_eq6_allocation(self, eq6_instance):
        # W=[[1,2],[1,5]] -> X=[[1,0.25],[0,0.75]], total 5.25
        allocation = CooperativeOEF().allocate(eq6_instance)
        np.testing.assert_allclose(
            allocation.matrix, [[1.0, 0.25], [0.0, 0.75]], atol=1e-6
        )
        assert allocation.total_efficiency() == pytest.approx(5.25)

    def test_fig2_before_and_after_lie(self, fig2_instance):
        allocation = CooperativeOEF().allocate(fig2_instance)
        np.testing.assert_allclose(
            allocation.matrix, [[1.0, 0.25], [0.0, 0.75]], atol=1e-6
        )
        lied = fig2_instance.with_speedups(
            fig2_instance.speedups.with_row(0, [1.0, 3.0])
        )
        after = CooperativeOEF().allocate(lied)
        np.testing.assert_allclose(
            after.matrix, [[1.0, 1 / 3], [0.0, 2 / 3]], atol=1e-4
        )


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_envy_freeness_on_random_instances(self, seed):
        instance = random_instance(5, 3, seed=seed)
        allocation = CooperativeOEF().allocate(instance)
        assert check_envy_freeness(allocation, tol=1e-5).satisfied

    @pytest.mark.parametrize("seed", range(5))
    def test_sharing_incentive_on_random_instances(self, seed):
        instance = random_instance(5, 3, seed=seed)
        allocation = CooperativeOEF().allocate(instance)
        assert check_sharing_incentive(allocation, tol=1e-5).satisfied

    def test_never_exceeds_unconstrained_bound(self, zoo_instance_4):
        allocation = CooperativeOEF().allocate(zoo_instance_4)
        assert allocation.total_efficiency() <= optimal_efficiency_upper_bound(
            zoo_instance_4
        ) * (1 + 1e-9)

    def test_beats_or_matches_equal_split(self, zoo_instance_4):
        allocation = CooperativeOEF().allocate(zoo_instance_4)
        equal_total = float(zoo_instance_4.equal_split_throughput().sum())
        assert allocation.total_efficiency() >= equal_total - 1e-6

    def test_single_user_gets_everything(self):
        instance = ProblemInstance(SpeedupMatrix([[1, 3]]), [2.0, 4.0])
        allocation = CooperativeOEF().allocate(instance)
        np.testing.assert_allclose(allocation.matrix, [[2.0, 4.0]])

    def test_identical_users_are_envy_free(self):
        instance = ProblemInstance(
            SpeedupMatrix([[1, 2], [1, 2], [1, 2]]), [3.0, 3.0]
        )
        allocation = CooperativeOEF().allocate(instance)
        assert check_envy_freeness(allocation, tol=1e-6).satisfied


class TestAdjacency:
    """Theorem 5.2: OEF only mixes adjacent GPU types per user.

    The theorem's trade argument relies on users being totally ordered by
    "steepness" (its proof writes ``w_l^j = a_l * b_l^...``), so adjacency
    is tested on the log-linear speedup family where that order holds;
    arbitrary monotone matrices with crossing relative preferences can
    legitimately produce holes.
    """

    @staticmethod
    def _instance(seed):
        from repro.core import ProblemInstance
        from repro.workloads.generator import log_linear_speedup_matrix

        rng = np.random.default_rng(seed)
        matrix = log_linear_speedup_matrix(4, 4, rng)
        return ProblemInstance(matrix, np.full(4, 4.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_cooperative_allocations_are_adjacent(self, seed):
        instance = self._instance(seed)
        allocation = CooperativeOEF().allocate(instance)
        for user in range(instance.num_users):
            used = allocation.gpu_types_used(user, tol=1e-5)
            if used:
                assert used == list(range(min(used), max(used) + 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_noncooperative_allocations_are_adjacent(self, seed):
        from repro.core import NonCooperativeOEF

        instance = self._instance(seed)
        allocation = NonCooperativeOEF().allocate(instance)
        for user in range(instance.num_users):
            used = allocation.gpu_types_used(user, tol=1e-5)
            if used:
                assert used == list(range(min(used), max(used) + 1))


class TestCuttingPlane:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_formulation(self, seed):
        instance = random_instance(8, 3, seed=seed, devices_per_type=5.0)
        full = CooperativeOEF(method="full").allocate(instance)
        cuts = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert cuts.total_efficiency() == pytest.approx(
            full.total_efficiency(), rel=1e-9
        )

    def test_cutting_plane_result_is_envy_free(self):
        instance = random_instance(30, 5, seed=11, devices_per_type=10.0)
        allocation = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert check_envy_freeness(allocation, tol=1e-5).satisfied

    def test_auto_switches_by_size(self):
        small = random_instance(4, 2, seed=0)
        allocator = CooperativeOEF()
        assert allocator.method == "auto"
        # behavioural check only: result valid either way
        allocation = allocator.allocate(small)
        assert check_envy_freeness(allocation, tol=1e-5).satisfied

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            CooperativeOEF(method="magic")


class TestCutChoice:
    """Which pairs seed the cut session and which cuts a round adds."""

    K = CooperativeOEF.SEED_NEIGHBOURS

    @staticmethod
    def _groups(speedups):
        instance = ProblemInstance(
            SpeedupMatrix(speedups, normalise=False), np.full(speedups.shape[1], 4.0)
        )
        return instance.grouped()

    @pytest.mark.parametrize("users,types", [(2, 3), (5, 2), (32, 6), (64, 10)])
    def test_seed_set_is_symmetric_small_and_holds_each_nearest_profile(
        self, users, types
    ):
        groups = random_instance(users, types, seed=users).grouped()
        pairs = CooperativeOEF()._seed_pairs(groups)
        member = np.zeros((users, users), dtype=bool)
        member[pairs[:, 0], pairs[:, 1]] = True
        assert len(pairs) == np.count_nonzero(member) <= 2 * self.K * users
        assert not member.diagonal().any()
        np.testing.assert_array_equal(member, member.T)
        # ascending (g, h) order
        np.testing.assert_array_equal(pairs, np.argwhere(member))
        # every group's nearest profile, by the n x n x k difference tensor
        unit = groups.speedups / np.linalg.norm(groups.speedups, axis=1)[:, None]
        distance = np.linalg.norm(unit[:, None, :] - unit[None, :, :], axis=2)
        np.fill_diagonal(distance, np.inf)
        seeded = np.where(member, distance, np.inf).min(axis=1)
        np.testing.assert_allclose(seeded, distance.min(axis=1), atol=1e-9)
        np.testing.assert_array_equal(CooperativeOEF()._seed_pairs(groups), pairs)

    def test_tied_envy_keeps_the_lowest_pairs(self):
        # rows are multiples of one profile, so envy of g for h is
        # c_g (v.z_h - v.z_g): groups 0-6 hold one slow device each, groups
        # 7-23 hold nothing and envy each of the seven by exactly c_g
        scale = np.arange(1.0, 25.0)
        groups = self._groups(scale[:, None] * np.array([1.0, 2.0]))
        matrix = np.zeros((24, 2))
        matrix[:7, 0] = 1.0
        allocator = CooperativeOEF()
        allocator.CUT_BUDGET_FACTOR = 1  # 119 violated pairs, a budget of 24
        violated = allocator._violated_pairs(groups, matrix, 1e-9)
        expected = [[g, h] for g in (23, 22, 21) for h in range(7)]
        assert violated.tolist() == expected + [[20, 0], [20, 1], [20, 2]]

    def test_collinear_profiles_seed_the_same_pairs_on_repeat(self):
        # distance-0 neighbours: every seed is a tie, broken the same way
        scale = np.arange(1.0, 11.0)
        groups = self._groups(scale[:, None] * np.array([1.0, 1.5, 4.0]))
        first = CooperativeOEF()._seed_pairs(groups)
        assert len(first) <= 2 * self.K * 10
        for _ in range(3):
            np.testing.assert_array_equal(CooperativeOEF()._seed_pairs(groups), first)


class TestEfficiencyMax:
    def test_matches_upper_bound(self, paper_instance):
        allocation = EfficiencyMaxAllocator().allocate(paper_instance)
        assert allocation.total_efficiency() == pytest.approx(
            optimal_efficiency_upper_bound(paper_instance)
        )

    def test_gives_each_type_to_best_user(self, paper_instance):
        allocation = EfficiencyMaxAllocator().allocate(paper_instance)
        # GPU2 must fully go to user 3 (speedup 4)
        assert allocation.matrix[2, 1] == pytest.approx(1.0)

    def test_violates_sharing_incentive(self, paper_instance):
        from repro.core import check_sharing_incentive

        allocation = EfficiencyMaxAllocator().allocate(paper_instance)
        assert not check_sharing_incentive(allocation).satisfied


class TestCuttingPlanePaths:
    def test_incremental_matches_the_full_program(self):
        # the persistent-session cut loop and the full O(n^2) program
        # must land on the same optimum
        instance = random_instance(80, 6, seed=11, devices_per_type=40.0)
        incremental = CooperativeOEF(method="cutting-plane").allocate(instance)
        full = CooperativeOEF(method="full").allocate(instance)
        assert incremental.total_efficiency() == pytest.approx(
            full.total_efficiency(), rel=1e-7
        )
        assert check_envy_freeness(incremental, tol=1e-5).satisfied
        assert check_envy_freeness(full, tol=1e-5).satisfied

    def test_cutting_plane_matches_full_form(self):
        # both regimes solve Eq. 10 exactly; objectives must agree
        instance = random_instance(24, 4, seed=3, devices_per_type=12.0)
        full = CooperativeOEF(method="full").allocate(instance)
        cuts = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert cuts.total_efficiency() == pytest.approx(
            full.total_efficiency(), rel=1e-7
        )


class TestEq10AsOneMatrix:
    """``eq10_rows`` is scipy's ``vstack`` of the two row builders, byte for byte.

    The reference stacks scipy matrices rebuilt from each block's arrays.
    """

    @pytest.mark.parametrize("groups", [2, 3, 8, 24, 25])
    @pytest.mark.parametrize("types", [1, 4, 10])
    def test_equals_vstack_of_capacity_and_envy_rows(self, groups, types):
        rng = np.random.default_rng(groups * 100 + types)
        speedups = np.cumsum(rng.uniform(0.0, 1.0, (groups, types)), axis=1)
        speedups /= speedups[:, :1]
        multiplicity = rng.choice([0.5, 1.0, 1.3, 2.0, 7 / 3], size=groups)
        reference = sparse.vstack(
            [
                to_scipy(cooperative.capacity_rows(groups, types)),
                to_scipy(cooperative.envy_rows(speedups, multiplicity)),
            ],
            format="csr",
        )
        assert reference.shape == (types + groups * (groups - 1), groups * types)
        one = cooperative.eq10_rows(speedups, multiplicity)
        assert csr_bytes(one) == csr_bytes(reference)
        # a cut session's seed rows: the same over a subset of pairs
        pairs = [(g, h) for g in range(groups) for h in range(groups) if (g + h) % 3 == 1]
        reference = sparse.vstack(
            [
                to_scipy(cooperative.capacity_rows(groups, types)),
                to_scipy(cooperative.envy_rows(speedups, multiplicity, pairs)),
            ],
            format="csr",
        )
        one = cooperative.eq10_rows(speedups, multiplicity, pairs)
        assert csr_bytes(one) == csr_bytes(reference)


THRESHOLD = CooperativeOEF.CUTTING_PLANE_THRESHOLD


class TestAutoMethodFromTheThreshold:
    """``auto`` solves lazily above the threshold: same optimum, same guarantees."""

    def _spy_on_cuts(self, monkeypatch):
        calls = []
        original = CooperativeOEF._solve_cutting_plane

        def spy(allocator, instance, *args):
            matrix = original(allocator, instance, *args)
            calls.append(matrix is not None)
            return matrix

        monkeypatch.setattr(CooperativeOEF, "_solve_cutting_plane", spy)
        return calls

    def _check(self, instance):
        auto = CooperativeOEF().allocate(instance)
        full = CooperativeOEF(method="full").allocate(instance)
        assert auto.total_efficiency() == pytest.approx(
            full.total_efficiency(), rel=1e-9
        )
        assert check_envy_freeness(auto, tol=1e-6).satisfied
        assert check_sharing_incentive(auto, tol=1e-6).satisfied
        assert check_pareto_efficiency(auto, within="envy_free").satisfied
        again = CooperativeOEF().allocate(instance)
        np.testing.assert_array_equal(auto.matrix, again.matrix)

    @pytest.mark.parametrize("users", range(THRESHOLD + 1, 65))
    def test_auto_matches_full_and_keeps_the_guarantees(self, users, monkeypatch):
        calls = self._spy_on_cuts(monkeypatch)
        types = 3 + users % 5
        self._check(random_instance(users, types, seed=users, devices_per_type=6.0))
        assert calls == [True, True]  # both auto runs, never the full run

    def test_at_the_threshold_auto_is_the_full_program(self, monkeypatch):
        calls = self._spy_on_cuts(monkeypatch)
        instance = random_instance(THRESHOLD, 4, seed=3, devices_per_type=6.0)
        auto = CooperativeOEF().allocate(instance)
        full = CooperativeOEF(method="full").allocate(instance)
        assert calls == []
        np.testing.assert_array_equal(auto.matrix, full.matrix)

    def test_twelve_weighted_tenants_stay_a_twelve_row_full_program(self, monkeypatch):
        # weights 1..4 over 12 tenants were 30 virtual users and took the
        # cutting-plane path; as multiplicities they are 12 rows, below it
        calls = self._spy_on_cuts(monkeypatch)
        forms = []
        original = cooperative.solve_form
        monkeypatch.setattr(
            cooperative,
            "solve_form",
            lambda form, **kwargs: forms.append(form) or original(form, **kwargs),
        )
        rng = np.random.default_rng(4)
        tenants = [
            TenantSpec.single(
                f"t{index}",
                np.concatenate([[1.0], 1.0 + np.sort(rng.uniform(0.2, 3.0, 3))]),
                weight=float(1 + index % 4),
            )
            for index in range(12)
        ]
        merged = WeightedOEF(mode="cooperative").allocate(tenants, np.full(4, 6.0))
        assert merged.expanded.instance.num_users == 12 <= THRESHOLD
        assert calls == []
        assert [form.num_variables for form in forms] == [12 * 4]
        assert forms[0].a_ub.shape[0] == 4 + 12 * 11
        weights = merged.weights
        assert check_envy_freeness(merged.expanded, weights=weights).satisfied
        assert check_sharing_incentive(merged.expanded, weights=weights).satisfied
        assert check_pareto_efficiency(
            merged.expanded, within="envy_free", weights=weights
        ).satisfied

    def test_cut_round_cap_falls_back_to_the_full_program(self, monkeypatch):
        monkeypatch.setattr(CooperativeOEF, "MAX_CUT_ROUNDS", 0)
        calls = self._spy_on_cuts(monkeypatch)
        instance = random_instance(THRESHOLD + 6, 4, seed=9, devices_per_type=6.0)
        auto = CooperativeOEF().allocate(instance)
        full = CooperativeOEF(method="full").allocate(instance)
        assert calls == [False]
        np.testing.assert_array_equal(auto.matrix, full.matrix)
