"""Edge cases for the sparse ``standardise_form`` path and phase-1 tolerance.

The standardisation step folds general bounds into the non-negative
standard form; these tests pin its behaviour on the shapes that
historically broke naive implementations — upper-bound-only variables,
redundant equality systems, constraint-free programs — and cross-check
random programs differentially against scipy's HiGHS.
"""

import numpy as np
import pytest
from scipy import sparse

from reference_lp import LinearProgram, lin_sum
from reference_simplex import _PHASE1_TOL, standardise_form
from repro.exceptions import InfeasibleError


class TestStandardiseStructure:
    def test_returns_sparse_matrix(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 3)
        lp.add_constraint(lin_sum(x) <= 2.0)
        lp.set_objective(lin_sum(x), sense="max")
        a, b, c, columns = standardise_form(lp.compile())
        assert sparse.issparse(a)
        assert (b >= 0).all()
        assert a.shape[0] == len(b)
        assert a.shape[1] == len(c)

    def test_slack_block_is_identity(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + x[1] <= 3.0)
        lp.add_constraint(x[0] - x[1] <= 1.0)
        lp.set_objective(x[0], sense="max")
        a, b, c, columns = standardise_form(lp.compile())
        # ``columns`` maps exactly the internal (variable-derived)
        # columns; everything to their right is the slack identity
        slack_block = a.toarray()[:, len(columns) :]
        np.testing.assert_allclose(slack_block, np.eye(2))


class TestBoundFolding:
    def test_upper_bound_only_variable(self):
        # lower=None, upper=4: free below, capped above — the shift/split
        # machinery must still cap the maximum at 4
        lp = LinearProgram()
        x = lp.new_variable("x", lower=None, upper=4.0)
        lp.set_objective(x.to_expr(), sense="max")
        for backend in ("highs", "simplex"):
            assert lp.solve(backend=backend).objective == pytest.approx(4.0)

    def test_upper_bound_only_in_constraint(self):
        lp = LinearProgram()
        x = lp.new_variable("x", lower=None, upper=10.0)
        y = lp.new_variable("y", lower=0.0)
        lp.add_constraint(x + y <= 6.0)
        lp.add_constraint(x.to_expr() >= -2.0)
        lp.set_objective(2.0 * x + y, sense="max")
        scipy_solution = lp.solve(backend="highs")
        simplex_solution = lp.solve(backend="simplex")
        assert simplex_solution.objective == pytest.approx(scipy_solution.objective)

    def test_negative_upper_bound(self):
        lp = LinearProgram()
        x = lp.new_variable("x", lower=None, upper=-1.0)
        lp.set_objective(x.to_expr(), sense="max")
        for backend in ("highs", "simplex"):
            assert lp.solve(backend=backend).objective == pytest.approx(-1.0)


class TestDegenerateSystems:
    def test_redundant_equalities_solve(self):
        # a duplicated equality row leaves one artificial basic at zero;
        # the solver must not declare it infeasible
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + x[1] == 3.0)
        lp.add_constraint(x[0] + x[1] == 3.0)
        lp.set_objective(2.0 * x[0] + x[1], sense="max")
        for backend in ("highs", "simplex"):
            assert lp.solve(backend=backend).objective == pytest.approx(6.0)

    def test_no_constraints_at_all(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=5.0)
        lp.set_objective(x.to_expr(), sense="max")
        for backend in ("highs", "simplex"):
            assert lp.solve(backend=backend).objective == pytest.approx(5.0)

    def test_empty_objective_feasibility_check(self):
        lp = LinearProgram()
        x = lp.new_variable_array("x", 2)
        lp.add_constraint(x[0] + x[1] == 2.0)
        lp.set_objective(0.0 * x[0], sense="min")
        solution = lp.solve(backend="simplex")
        assert solution.objective == pytest.approx(0.0)


class TestPhase1Tolerance:
    def test_constant_documented_value(self):
        assert _PHASE1_TOL == pytest.approx(1e-7)

    def test_clearly_infeasible_above_tolerance(self):
        lp = LinearProgram()
        x = lp.new_variable("x", upper=1.0)
        lp.add_constraint(x.to_expr() >= 1.0 + 5e-6)
        lp.set_objective(x.to_expr(), sense="max")
        with pytest.raises(InfeasibleError):
            lp.solve(backend="simplex")

    def test_sub_tolerance_violation_treated_feasible(self):
        # an infeasibility smaller than the phase-1 tolerance is noise at
        # float64 scale; the solver accepts the nearest feasible vertex
        lp = LinearProgram()
        x = lp.new_variable("x", upper=1.0)
        lp.add_constraint(x.to_expr() >= 1.0 + 1e-9)
        lp.set_objective(x.to_expr(), sense="max")
        solution = lp.solve(backend="simplex")
        assert solution.objective == pytest.approx(1.0, abs=1e-7)


class TestRandomDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sparse_lp_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(3, 9))
        num_rows = int(rng.integers(2, 7))
        lp = LinearProgram()
        bounds = []
        for i in range(num_vars):
            kind = rng.integers(0, 3)
            if kind == 0:
                bounds.append((0.0, None))
            elif kind == 1:
                bounds.append((0.0, float(rng.uniform(0.5, 3.0))))
            else:
                bounds.append((None, float(rng.uniform(0.5, 3.0))))
        x = [
            lp.new_variable(f"x{i}", lower=lo, upper=hi)
            for i, (lo, hi) in enumerate(bounds)
        ]
        matrix = rng.uniform(0.1, 2.0, size=(num_rows, num_vars))
        matrix[rng.random(matrix.shape) < 0.4] = 0.0
        # keep every variable in at least one row so no unbounded ray
        # sneaks past an unbounded-above variable with a zeroed column
        matrix[0] = rng.uniform(0.1, 2.0, size=num_vars)
        rhs = rng.uniform(1.0, 5.0, size=num_rows)
        lp.add_matrix_constraints(matrix, x, "<=", rhs)
        weights = rng.uniform(0.1, 1.0, size=num_vars)
        lp.set_objective(
            sum(float(w) * xi for w, xi in zip(weights, x)), sense="max"
        )
        scipy_solution = lp.solve(backend="highs")
        simplex_solution = lp.solve(backend="simplex")
        assert simplex_solution.objective == pytest.approx(
            scipy_solution.objective, abs=1e-7
        )
