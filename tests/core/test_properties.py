"""The fairness-property auditors themselves."""

import numpy as np
import pytest

from repro.baselines import EfficiencyMaxAllocator, Gavel, MaxMinFairness
from repro.core import (
    Allocation,
    CooperativeOEF,
    NonCooperativeOEF,
    ProblemInstance,
    SpeedupMatrix,
    audit_allocator,
    check_envy_freeness,
    check_pareto_efficiency,
    check_sharing_incentive,
    check_strategy_proofness,
    optimal_efficiency_upper_bound,
)
from repro.core import properties
from repro.core.properties import (
    check_optimal_efficiency,
    constrained_optimal_efficiency,
)
from repro.exceptions import SolverError
from repro.workloads.generator import random_instance


@pytest.fixture
def instance():
    return ProblemInstance(SpeedupMatrix([[1, 2], [1, 4]]), [1.0, 1.0])


class TestEnvyChecker:
    def test_equal_split_is_envy_free(self, instance):
        allocation = MaxMinFairness().allocate(instance)
        report = check_envy_freeness(allocation)
        assert report.satisfied
        assert report.worst_pair is None

    def test_detects_envy_with_pair(self, instance):
        allocation = Allocation([[0.0, 0.0], [1.0, 1.0]], instance)
        report = check_envy_freeness(allocation)
        assert not report.satisfied
        assert report.worst_pair == (0, 1)
        assert report.worst_envy == pytest.approx(3.0)


class TestSharingIncentiveChecker:
    def test_equal_split_is_exactly_si(self, instance):
        allocation = MaxMinFairness().allocate(instance)
        assert check_sharing_incentive(allocation).satisfied

    def test_detects_violation(self, instance):
        allocation = Allocation([[0.0, 0.0], [1.0, 1.0]], instance)
        report = check_sharing_incentive(allocation)
        assert not report.satisfied
        assert report.worst_user == 0
        assert report.worst_gap < 0


class TestParetoChecker:
    def test_efficiency_max_is_pareto_efficient(self, instance):
        allocation = EfficiencyMaxAllocator().allocate(instance)
        assert check_pareto_efficiency(allocation).satisfied

    def test_empty_allocation_is_not_pareto_efficient(self, instance):
        allocation = Allocation(np.zeros((2, 2)), instance)
        report = check_pareto_efficiency(allocation)
        assert not report.satisfied
        assert report.achievable_total > report.current_total

    def test_coop_oef_pe_within_envy_free_domain(self, instance):
        allocation = CooperativeOEF().allocate(instance)
        assert check_pareto_efficiency(allocation, within="envy_free").satisfied

    def test_noncoop_oef_pe_within_equal_domain(self, instance):
        allocation = NonCooperativeOEF().allocate(instance)
        assert check_pareto_efficiency(
            allocation, within="equal_throughput"
        ).satisfied

    def test_unknown_domain_rejected(self, instance):
        allocation = MaxMinFairness().allocate(instance)
        with pytest.raises(ValueError):
            check_pareto_efficiency(allocation, within="approximate")

    def test_dense_gavel_not_pareto_efficient(self, paper_instance):
        allocation = Gavel().allocate(paper_instance)
        assert not check_pareto_efficiency(allocation).satisfied

    def test_vertex_gavel_is_pareto_efficient(self, paper_instance):
        allocation = Gavel(dense=False).allocate(paper_instance)
        assert check_pareto_efficiency(allocation).satisfied

    @pytest.mark.parametrize("within", ["envy_free", "equal_throughput"])
    def test_allocation_outside_the_domain_is_undominated_in_it(self, within):
        # no envy-free / equal-throughput allocation meets every floor of
        # the efficiency maximiser's, so the floor LP is infeasible
        allocation = EfficiencyMaxAllocator().allocate(random_instance(6, 3, seed=3))
        report = check_pareto_efficiency(allocation, within=within)
        assert report.satisfied
        assert report.achievable_total == -np.inf
        assert report.current_total == pytest.approx(allocation.total_efficiency())

    def test_other_solver_errors_still_propagate(self, instance, monkeypatch):
        def broken(form, **kwargs):
            raise SolverError("numerical trouble")

        monkeypatch.setattr(properties, "solve_form", broken)
        with pytest.raises(SolverError, match="numerical trouble"):
            check_pareto_efficiency(MaxMinFairness().allocate(instance))

    def test_audit_outside_the_pe_domain_reports_every_row(self):
        report = audit_allocator(
            EfficiencyMaxAllocator(),
            random_instance(6, 3, seed=3),
            sp_trials=1,
            pe_within="envy_free",
        )
        assert report.pareto_efficiency.satisfied
        assert report.strategy_proofness is not None
        assert report.as_row() == {
            "scheduler": "efficiency-max", "PE": "yes", "EF": "no", "SI": "no",
            "SP": "no", "optimal efficiency": "yes",
        }


class TestOptimalEfficiency:
    def test_unconstrained_bound_formula(self, instance):
        # max per type: GPU1 -> 1, GPU2 -> 4
        assert optimal_efficiency_upper_bound(instance) == pytest.approx(5.0)

    def test_none_constraint_equals_bound(self, instance):
        assert constrained_optimal_efficiency(
            instance, "none"
        ) == pytest.approx(5.0)

    def test_envy_free_optimum_below_bound(self, instance):
        value = constrained_optimal_efficiency(instance, "envy_free")
        assert value <= 5.0
        assert value == pytest.approx(5.25 / 1.0 - 0.75 * 1.0, abs=1.0)  # sanity

    def test_si_constrained_optimum(self, instance):
        value = constrained_optimal_efficiency(instance, "sharing_incentive")
        equal_total = float(instance.equal_split_throughput().sum())
        assert value >= equal_total - 1e-6

    def test_unknown_constraint_rejected(self, instance):
        with pytest.raises(ValueError):
            constrained_optimal_efficiency(instance, "karma")

    def test_coop_oef_is_optimal_within_envy_free(self, instance):
        allocation = CooperativeOEF().allocate(instance)
        assert check_optimal_efficiency(allocation, "envy_free").satisfied

    def test_maxmin_is_not_optimal(self, instance):
        allocation = MaxMinFairness().allocate(instance)
        assert not check_optimal_efficiency(allocation, "envy_free").satisfied


class TestStrategyProofnessAudit:
    def test_maxmin_trivially_strategy_proof(self, instance):
        # the allocation ignores reports entirely
        report = check_strategy_proofness(MaxMinFairness(), instance, trials=3)
        assert report.satisfied
        assert report.max_gain == 0.0

    def test_noncoop_oef_strategy_proof(self, instance):
        report = check_strategy_proofness(NonCooperativeOEF(), instance, trials=4)
        assert report.satisfied

    def test_coop_oef_not_strategy_proof(self, fig2_instance):
        report = check_strategy_proofness(CooperativeOEF(), fig2_instance, trials=4)
        assert not report.satisfied
        assert report.max_gain > 0.0

    def test_violation_records_details(self, fig2_instance):
        report = check_strategy_proofness(CooperativeOEF(), fig2_instance, trials=4)
        violation = report.violations[0]
        assert violation.user in (0, 1)
        assert violation.cheating_throughput > violation.honest_throughput
        assert violation.gain > 0

    def test_trial_count(self, instance):
        report = check_strategy_proofness(MaxMinFairness(), instance, trials=3)
        # 4 deterministic probes + 3 random per user, 2 users
        assert report.trials == 2 * (4 + 3)


class TestFullAudit:
    def test_audit_report_row(self, instance):
        report = audit_allocator(
            CooperativeOEF(),
            instance,
            efficiency_constraint="envy_free",
            sp_trials=2,
            pe_within="envy_free",
        )
        row = report.as_row()
        assert row["PE"] == "yes"
        assert row["EF"] == "yes"
        assert row["SI"] == "yes"
        assert row["SP"] == "no"
        assert row["optimal efficiency"] == "yes"

    def test_audit_noncoop(self, instance):
        report = audit_allocator(
            NonCooperativeOEF(),
            instance,
            efficiency_constraint="equal_throughput",
            sp_trials=2,
            pe_within="equal_throughput",
        )
        row = report.as_row()
        assert row["SP"] == "yes"
        assert row["optimal efficiency"] == "yes"


class _RewardsAnyMisreport:
    """Stub allocator: honest reports get nothing extra, any misreport
    earns user 0 exactly ``bonus`` extra true throughput via GPU type 1."""

    name = "rewards-misreport"

    def __init__(self, truth, bonus):
        self._truth = np.asarray(truth, dtype=float)
        self._bonus = float(bonus)

    def allocate(self, instance):
        matrix = np.zeros((instance.num_users, instance.num_gpu_types))
        matrix[0, 0] = 1.0
        if not np.array_equal(instance.speedups.row(0), self._truth):
            # true speedup on type 1 is 2.0, so share bonus/2 => gain bonus
            matrix[0, 1] = self._bonus / 2.0
        return Allocation(matrix, instance)


class TestToleranceEdges:
    """Ties at exactly the checker tolerances are *not* violations."""

    def test_sp_gain_of_exactly_tol_is_not_a_violation(self):
        # one honest tenant: throughput 1.0, so the slack is tol * 1.0
        instance = ProblemInstance(SpeedupMatrix([[1, 2]]), [1.0, 1.0])
        tol = 1e-4
        report = check_strategy_proofness(
            _RewardsAnyMisreport([1.0, 2.0], bonus=tol),
            instance,
            trials=3,
            tol=tol,
        )
        assert report.satisfied
        assert report.max_gain == 0.0

    def test_sp_gain_just_past_tol_is_a_violation(self):
        instance = ProblemInstance(SpeedupMatrix([[1, 2]]), [1.0, 1.0])
        tol = 1e-4
        report = check_strategy_proofness(
            _RewardsAnyMisreport([1.0, 2.0], bonus=2 * tol),
            instance,
            trials=3,
            tol=tol,
        )
        assert not report.satisfied
        assert report.max_gain == pytest.approx(2 * tol)

    def test_envy_of_exactly_default_tol_is_envy_free(self):
        from repro.core.properties import _DEFAULT_TOL

        instance = ProblemInstance(SpeedupMatrix([[1], [1]]), [1.0])
        # user 0 owns nothing, so envy[0, 1] is user 1's share, exactly
        allocation = Allocation([[0.0], [_DEFAULT_TOL]], instance)
        report = check_envy_freeness(allocation)
        assert report.satisfied
        assert report.worst_pair is None

    def test_envy_past_default_tol_is_not(self):
        from repro.core.properties import _DEFAULT_TOL

        instance = ProblemInstance(SpeedupMatrix([[1], [1]]), [1.0])
        allocation = Allocation([[0.0], [2 * _DEFAULT_TOL]], instance)
        report = check_envy_freeness(allocation)
        assert not report.satisfied
        assert report.worst_pair == (0, 1)
        assert report.worst_envy == pytest.approx(2 * _DEFAULT_TOL)


class TestReportRowMarks:
    def test_sp_row_is_na_when_sp_not_audited(self, instance):
        report = audit_allocator(MaxMinFairness(), instance, sp_trials=1)
        report.strategy_proofness = None
        row = report.as_row()
        assert row["SP"] == "n/a"
        assert set(row) == {
            "scheduler", "PE", "EF", "SI", "SP", "optimal efficiency"
        }
