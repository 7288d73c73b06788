"""Unit tests for the test-side LinearProgram oracle: building and compiling."""

import numpy as np
import pytest
from scipy import sparse

from reference_lp import LinearProgram, Variable, dot, lin_sum
from repro.exceptions import InfeasibleError, ModelError, UnboundedError


class TestModelBuilding:
    def test_constraint_count(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 3)
        lp.add_constraint(lin_sum(x) <= 1.0)
        lp.add_matrix_constraints(np.eye(3), list(x), "<=", 1.0)
        assert lp.num_constraints == 4

    def test_add_constraint_requires_constraint(self):
        lp = LinearProgram()
        lp.new_variable("x")
        with pytest.raises(ModelError):
            lp.add_constraint("x <= 1")  # type: ignore[arg-type]

    def test_foreign_variable_rejected(self):
        lp1 = LinearProgram()
        lp2 = LinearProgram()
        lp1.new_variable("a")  # occupy index 0 in lp1
        x2 = lp2.new_variable_array("x", 5)
        with pytest.raises(ModelError):
            lp1.add_constraint(x2[4] <= 1.0)

    def test_matrix_constraint_shape_mismatch(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 3)
        with pytest.raises(ModelError):
            lp.add_matrix_constraints(np.eye(2), list(x), "<=", 1.0)

    def test_matrix_constraint_bad_sense(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        with pytest.raises(ModelError):
            lp.add_matrix_constraints(np.eye(2), list(x), "<>", 1.0)

    def test_objective_bad_sense(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        with pytest.raises(ModelError):
            lp.set_objective(x.to_expr(), sense="maximize-hard")

    def test_compile_without_objective(self):
        lp = LinearProgram()
        lp.new_variable("x")
        with pytest.raises(ModelError):
            lp.compile()


class TestCompilation:
    def test_maximise_negates_costs(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        lp.set_objective(2.0 * x, sense="max")
        form = lp.compile()
        assert form.c[0] == -2.0
        assert form.maximise

    def test_rhs_folding(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        lp.add_constraint(x + 1.0 <= 4.0)
        lp.set_objective(x.to_expr(), sense="max")
        form = lp.compile()
        assert form.b_ub[0] == pytest.approx(3.0)

    def test_ge_rows_are_negated(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        lp.add_constraint(x >= 2.0)
        lp.set_objective(x.to_expr(), sense="min")
        form = lp.compile()
        assert form.a_ub[0, 0] == -1.0
        assert form.b_ub[0] == -2.0

    def test_eq_rows_go_to_a_eq(self):
        lp = LinearProgram()
        x, y = lp.new_variable("x"), lp.new_variable("y")
        lp.add_constraint(x + y == 1.0)
        lp.set_objective(x.to_expr(), sense="max")
        form = lp.compile()
        assert form.a_eq.shape == (1, 2)
        assert form.a_ub is None

    def test_objective_offset_preserved(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=5.0)
        lp.set_objective(x + 10.0, sense="max")
        solution = lp.solve()
        assert solution.objective == pytest.approx(15.0)

    def test_sparse_block_accepted(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 4)
        block = sparse.eye(4, format="coo")
        lp.add_matrix_constraints(block, list(x), "<=", 2.0)
        lp.set_objective(lin_sum(x), sense="max")
        solution = lp.solve()
        assert solution.objective == pytest.approx(8.0)

    def test_large_system_stays_sparse(self):
        lp = LinearProgram()
        num_vars = 3000
        x = lp.new_variable_array("x", num_vars)
        rows = sparse.eye(num_vars, format="coo")
        # two blocks so the cell count crosses the densify limit
        lp.add_matrix_constraints(rows, list(x), "<=", 1.0)
        lp.add_matrix_constraints(rows, list(x), "<=", 2.0)
        lp.set_objective(lin_sum(x), sense="max")
        form = lp.compile()
        assert sparse.issparse(form.a_ub)


class TestSolveBasics:
    def test_simple_max(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=4.0)
        lp.set_objective(x.to_expr(), sense="max")
        solution = lp.solve()
        assert solution.value(x) == pytest.approx(4.0)

    def test_knapsack_like_lp(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + 2.0 * x[1] <= 4.0)
        lp.add_constraint(3.0 * x[0] + x[1] <= 6.0)
        lp.set_objective(3.0 * x[0] + 2.0 * x[1], sense="max")
        solution = lp.solve()
        # optimum at intersection: x = (1.6, 1.2), value 7.2
        assert solution.objective == pytest.approx(7.2)
        assert solution.value(x[0]) == pytest.approx(1.6)

    def test_value_of_expression(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=2.0)
        lp.set_objective(x.to_expr(), sense="max")
        solution = lp.solve()
        assert solution.value(2.0 * x + 1.0) == pytest.approx(5.0)

    def test_value_of_array(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", (2, 2), upper=1.0)
        lp.set_objective(lin_sum(x.ravel()), sense="max")
        solution = lp.solve()
        values = solution.value(x)
        assert values.shape == (2, 2)
        np.testing.assert_allclose(values, 1.0)

    def test_value_rejects_garbage(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=1.0)
        lp.set_objective(x.to_expr(), sense="max")
        solution = lp.solve()
        with pytest.raises(TypeError):
            solution.value("x")

    def test_infeasible_raises(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        lp.add_constraint(x <= 1.0)
        lp.add_constraint(x >= 2.0)
        lp.set_objective(x.to_expr(), sense="max")
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_unbounded_raises(self):
        lp = LinearProgram()
        x = lp.new_variable("x")
        lp.set_objective(x.to_expr(), sense="max")
        with pytest.raises(UnboundedError):
            lp.solve()

    def test_unknown_backend_rejected(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=1.0)
        lp.set_objective(x.to_expr(), sense="max")
        with pytest.raises(ModelError):
            lp.solve(backend="gurobi")

    def test_stats_populated(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=1.0)
        lp.add_constraint(x >= 0.5)
        lp.set_objective(x.to_expr(), sense="min")
        solution = lp.solve()
        assert solution.stats.num_variables == 1
        assert solution.stats.num_constraints == 1
        assert solution.stats.solve_seconds >= 0.0

    def test_free_variable(self):
        lp = LinearProgram()
        x = lp.new_variable("x", lower=None)
        lp.add_constraint(x >= -3.0)
        lp.set_objective(x.to_expr(), sense="min")
        solution = lp.solve()
        assert solution.value(x) == pytest.approx(-3.0)

    def test_dot_objective_matches_manual(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 3, upper=1.0)
        lp.set_objective(dot([1.0, 2.0, 3.0], x), sense="max")
        solution = lp.solve()
        assert solution.objective == pytest.approx(6.0)


class TestMatrixConstraintValidation:
    """Regression: the block path used to skip variable-ownership checks."""

    def test_negative_index_rejected(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        rogue = Variable(-1, "rogue", 0.0, None)
        with pytest.raises(ModelError):
            lp.add_matrix_constraints(np.eye(2), [x[0], rogue], "<=", 1.0)

    def test_out_of_range_index_rejected(self):
        lp1, lp2 = LinearProgram(), LinearProgram()
        lp1.new_variable("a")
        y = lp2.new_variable_array("y", 5)
        with pytest.raises(ModelError):
            lp1.add_matrix_constraints(np.ones((1, 1)), [y[4]], "<=", 1.0)

    def test_foreign_small_index_rejected(self):
        # index 0 is in range for *both* programs, so the bounds check
        # alone cannot catch this; handle identity must
        lp1, lp2 = LinearProgram(), LinearProgram()
        lp1.new_variable("a")
        b = lp2.new_variable("b")
        with pytest.raises(ModelError):
            lp1.add_matrix_constraints(np.ones((1, 1)), [b], "<=", 1.0)

    def test_own_variables_still_accepted(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 3)
        lp.add_matrix_constraints(np.eye(3), list(x), "<=", 1.0)
        assert lp.num_constraints == 3


def _toy_program():
    lp = LinearProgram()
    x = lp.new_variable_array("x", 2)
    lp.add_constraint(x[0] + 2.0 * x[1] <= 4.0)
    lp.add_constraint(3.0 * x[0] + x[1] <= 6.0)
    lp.set_objective(3.0 * x[0] + 2.0 * x[1], sense="max")
    return lp


class TestCompileMemoisation:
    def test_compile_is_memoised(self):
        lp = _toy_program()
        assert lp.compile() is lp.compile()

    def test_mutation_invalidates(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + x[1] <= 4.0)
        lp.set_objective(x[0] + x[1], sense="max")
        first = lp.compile()
        lp.add_constraint(x[0] <= 1.0)
        assert lp.compile() is not first
