"""The from-scratch simplex backend, cross-checked against scipy HiGHS."""

import numpy as np
import pytest

from repro.exceptions import InfeasibleError, UnboundedError
from repro.solver import LinearProgram, dot, lin_sum


def _solve_both(lp: LinearProgram):
    scipy_solution = lp.solve(backend="scipy")
    simplex_solution = lp.solve(backend="simplex")
    return scipy_solution, simplex_solution


class TestKnownPrograms:
    def test_simple_bounded_max(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=4.0)
        lp.set_objective(x.to_expr(), sense="max")
        assert lp.solve(backend="simplex").objective == pytest.approx(4.0)

    def test_two_variable_vertex(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + 2.0 * x[1] <= 4.0)
        lp.add_constraint(3.0 * x[0] + x[1] <= 6.0)
        lp.set_objective(3.0 * x[0] + 2.0 * x[1], sense="max")
        assert lp.solve(backend="simplex").objective == pytest.approx(7.2)

    def test_equality_constraints(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + x[1] == 3.0)
        lp.set_objective(2.0 * x[0] + x[1], sense="max")
        solution = lp.solve(backend="simplex")
        assert solution.objective == pytest.approx(6.0)
        assert solution.value(x[0]) == pytest.approx(3.0)

    def test_minimisation(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + x[1] >= 2.0)
        lp.set_objective(3.0 * x[0] + x[1], sense="min")
        assert lp.solve(backend="simplex").objective == pytest.approx(2.0)

    def test_free_variable_split(self):
        lp = LinearProgram()
        x = lp.new_variable("x", lower=None)
        lp.add_constraint(x >= -5.0)
        lp.set_objective(x.to_expr(), sense="min")
        assert lp.solve(backend="simplex").value(x) == pytest.approx(-5.0)

    def test_shifted_lower_bound(self):
        lp = LinearProgram()
        x = lp.new_variable("x", lower=2.0, upper=7.0)
        lp.set_objective(x.to_expr(), sense="min")
        assert lp.solve(backend="simplex").value(x) == pytest.approx(2.0)

    def test_negative_lower_bound(self):
        lp = LinearProgram()
        x = lp.new_variable("x", lower=-4.0, upper=-1.0)
        lp.set_objective(x.to_expr(), sense="max")
        assert lp.solve(backend="simplex").value(x) == pytest.approx(-1.0)

    def test_infeasible_detected(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        lp.add_constraint(x <= 1.0)
        lp.add_constraint(x >= 2.0)
        lp.set_objective(x.to_expr(), sense="max")
        with pytest.raises(InfeasibleError):
            lp.solve(backend="simplex")

    def test_unbounded_detected(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        lp.add_constraint(x >= 1.0)
        lp.set_objective(x.to_expr(), sense="max")
        with pytest.raises(UnboundedError):
            lp.solve(backend="simplex")

    def test_unbounded_without_constraints(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        lp.set_objective(x.to_expr(), sense="max")
        with pytest.raises(UnboundedError):
            lp.solve(backend="simplex")

    def test_degenerate_program_terminates(self):
        # multiple redundant constraints through the same vertex (Bland's
        # rule protects against cycling)
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + x[1] <= 1.0)
        lp.add_constraint(2.0 * x[0] + 2.0 * x[1] <= 2.0)
        lp.add_constraint(x[0] <= 1.0)
        lp.set_objective(x[0] + x[1], sense="max")
        assert lp.solve(backend="simplex").objective == pytest.approx(1.0)

    def test_redundant_equalities(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + x[1] == 2.0)
        lp.add_constraint(2.0 * x[0] + 2.0 * x[1] == 4.0)
        lp.set_objective(x[0].to_expr(), sense="max")
        assert lp.solve(backend="simplex").objective == pytest.approx(2.0)


class TestCrossCheck:
    """Random feasible programs: simplex and HiGHS must agree."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_inequality_lp(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 6))
        num_rows = int(rng.integers(1, 5))
        lp = LinearProgram()
        x = lp.new_variable_array("x", num_vars)
        matrix = rng.uniform(0.1, 2.0, size=(num_rows, num_vars))
        rhs = rng.uniform(1.0, 5.0, size=num_rows)
        lp.add_matrix_constraints(matrix, list(x), "<=", rhs)
        lp.set_objective(dot(rng.uniform(0.1, 3.0, num_vars), x), sense="max")
        scipy_solution, simplex_solution = _solve_both(lp)
        assert simplex_solution.objective == pytest.approx(
            scipy_solution.objective, rel=1e-6, abs=1e-8
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mixed_lp(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_vars = int(rng.integers(3, 6))
        lp = LinearProgram()
        x = lp.new_variable_array("x", num_vars, upper=3.0)
        matrix = rng.uniform(0.1, 1.0, size=(2, num_vars))
        lp.add_matrix_constraints(matrix, list(x), "<=", [4.0, 4.0])
        # one always-satisfiable equality: total mass pinned below the caps
        lp.add_constraint(lin_sum(x) == float(num_vars))
        lp.set_objective(dot(rng.uniform(-1.0, 2.0, num_vars), x), sense="max")
        scipy_solution, simplex_solution = _solve_both(lp)
        assert simplex_solution.objective == pytest.approx(
            scipy_solution.objective, rel=1e-6, abs=1e-8
        )

    def test_oef_noncoop_program_on_simplex(self, paper_instance):
        from repro.core import NonCooperativeOEF

        scipy_allocation = NonCooperativeOEF(backend="scipy").allocate(paper_instance)
        simplex_allocation = NonCooperativeOEF(backend="simplex").allocate(
            paper_instance
        )
        assert simplex_allocation.total_efficiency() == pytest.approx(
            scipy_allocation.total_efficiency(), rel=1e-6
        )

    def test_oef_coop_program_on_simplex(self, paper_instance):
        from repro.core import CooperativeOEF

        scipy_allocation = CooperativeOEF(backend="scipy").allocate(paper_instance)
        simplex_allocation = CooperativeOEF(backend="simplex").allocate(paper_instance)
        assert simplex_allocation.total_efficiency() == pytest.approx(
            scipy_allocation.total_efficiency(), rel=1e-6
        )


def _coop_case(users, types, seed, perturbed):
    from repro.core import ProblemInstance
    from repro.workloads.generator import random_instance

    instance = random_instance(users, types, seed=seed)
    if perturbed:
        noise = np.random.default_rng(seed).standard_normal(types)
        instance = ProblemInstance(
            instance.speedups, instance.capacities * (1 + 1e-3 * noise)
        )
    return instance


class TestCoopDifferential:
    """The reference simplex on feasible coop LPs, objective vs HiGHS.

    The nine 12x4 cases broke down before the ratio test admitted pivots
    relative to the column's largest entry (singular refactorisations,
    100000-iteration stalls); the rest samples the grid they came from.
    """

    BROKE_DOWN = [
        (12, 4, 0, True), (12, 4, 4, False), (12, 4, 14, True),
        (12, 4, 20, False), (12, 4, 23, False), (12, 4, 27, True),
        (12, 4, 31, True), (12, 4, 34, False), (12, 4, 39, True),
    ]
    SAMPLE = [
        (users, types, seed, perturbed)
        for users, types in ((4, 3), (6, 3), (8, 4), (12, 4))
        for seed in (1, 17, 33)
        for perturbed in (False, True)
    ]

    @pytest.mark.parametrize("users,types,seed,perturbed", BROKE_DOWN + SAMPLE)
    def test_simplex_objective_matches_scipy(self, users, types, seed, perturbed):
        from repro.core import CooperativeOEF

        instance = _coop_case(users, types, seed, perturbed)
        reference = CooperativeOEF(backend="scipy").allocate(instance)
        simplex = CooperativeOEF(backend="simplex").allocate(instance)
        assert simplex.total_efficiency() == pytest.approx(
            reference.total_efficiency(), rel=1e-6, abs=1e-6
        )
