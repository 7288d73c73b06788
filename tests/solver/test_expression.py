"""Unit tests for the LP expression algebra."""

import numpy as np
import pytest

from reference_lp import Constraint, LinearProgram, LinExpr, dot, lin_sum
from repro.exceptions import ModelError


@pytest.fixture
def lp():
    return LinearProgram("test")


class TestVariable:
    def test_variable_has_index_and_name(self, lp):
        x = lp.new_variable("x")
        assert x.index == 0
        assert x.name == "x"

    def test_default_bounds_nonnegative(self, lp):
        x = lp.new_variable("x")
        assert x.lower == 0.0
        assert x.upper is None

    def test_custom_bounds(self, lp):
        x = lp.new_variable("x", lower=-1.0, upper=2.0)
        assert x.lower == -1.0
        assert x.upper == 2.0

    def test_invalid_bounds_rejected(self, lp):
        with pytest.raises(ModelError):
            lp.new_variable("x", lower=3.0, upper=1.0)

    def test_to_expr(self, lp):
        x = lp.new_variable("x")
        expr = x.to_expr()
        assert expr.coeffs == {0: 1.0}
        assert expr.constant == 0.0

    def test_variable_array_shape(self, lp):
        arr = lp.new_variable_array("x", (2, 3))
        assert arr.shape == (2, 3)
        assert lp.num_variables == 6

    def test_variable_array_1d(self, lp):
        arr = lp.new_variable_array("x", 4)
        assert arr.shape == (4,)

    def test_variable_names_include_indices(self, lp):
        arr = lp.new_variable_array("x", (2, 2))
        assert arr[1, 0].name == "x[1,0]"

    def test_hashable(self, lp):
        x = lp.new_variable("x")
        assert len({x, x}) == 1


class TestLinExprArithmetic:
    def test_add_variables(self, lp):
        x, y = lp.new_variable("x"), lp.new_variable("y")
        expr = x + y
        assert expr.coeffs == {0: 1.0, 1: 1.0}

    def test_add_scalar(self, lp):
        x = lp.new_variable("x")
        expr = x + 2.5
        assert expr.constant == 2.5

    def test_radd(self, lp):
        x = lp.new_variable("x")
        expr = 2.5 + x
        assert expr.constant == 2.5

    def test_subtract(self, lp):
        x, y = lp.new_variable("x"), lp.new_variable("y")
        expr = x - y
        assert expr.coeffs == {0: 1.0, 1: -1.0}

    def test_rsub(self, lp):
        x = lp.new_variable("x")
        expr = 1.0 - x
        assert expr.coeffs == {0: -1.0}
        assert expr.constant == 1.0

    def test_scalar_multiply(self, lp):
        x = lp.new_variable("x")
        expr = 3.0 * x
        assert expr.coeffs == {0: 3.0}

    def test_division(self, lp):
        x = lp.new_variable("x")
        expr = (2.0 * x) / 4.0
        assert expr.coeffs == {0: 0.5}

    def test_division_by_zero_rejected(self, lp):
        x = lp.new_variable("x")
        with pytest.raises(ModelError):
            _ = x.to_expr() / 0.0

    def test_negation(self, lp):
        x = lp.new_variable("x")
        expr = -x
        assert expr.coeffs == {0: -1.0}

    def test_expression_times_expression_rejected(self, lp):
        x, y = lp.new_variable("x"), lp.new_variable("y")
        with pytest.raises((ModelError, TypeError)):
            _ = x.to_expr() * y.to_expr()

    def test_combining_same_variable_merges_coefficients(self, lp):
        x = lp.new_variable("x")
        expr = x + x + 2.0 * x
        assert expr.coeffs == {0: 4.0}

    def test_garbage_operand_rejected(self, lp):
        x = lp.new_variable("x")
        with pytest.raises(ModelError):
            _ = x + "three"

    def test_is_constant(self):
        assert LinExpr({}, 3.0).is_constant()
        assert not LinExpr({0: 1.0}).is_constant()

    def test_copy_is_independent(self, lp):
        x = lp.new_variable("x")
        original = x + 1.0
        clone = original.copy()
        clone.coeffs[0] = 99.0
        assert original.coeffs[0] == 1.0


class TestComparisons:
    def test_le_builds_constraint(self, lp):
        x = lp.new_variable("x")
        constraint = x <= 3.0
        assert isinstance(constraint, Constraint)
        assert constraint.sense == "<="
        assert constraint.expr.constant == -3.0

    def test_ge_builds_constraint(self, lp):
        x = lp.new_variable("x")
        constraint = x >= 1.0
        assert constraint.sense == ">="

    def test_eq_builds_constraint(self, lp):
        x = lp.new_variable("x")
        constraint = x == 2.0
        assert constraint.sense == "=="

    def test_expr_vs_expr_comparison(self, lp):
        x, y = lp.new_variable("x"), lp.new_variable("y")
        constraint = (x + 1.0) <= (y + 3.0)
        assert constraint.expr.coeffs == {0: 1.0, 1: -1.0}
        assert constraint.expr.constant == -2.0


class TestHelpers:
    def test_dot_basic(self, lp):
        arr = lp.new_variable_array("x", 3)
        expr = dot([1.0, 2.0, 3.0], arr)
        assert expr.coeffs == {0: 1.0, 1: 2.0, 2: 3.0}

    def test_dot_skips_zero_coefficients(self, lp):
        arr = lp.new_variable_array("x", 3)
        expr = dot([1.0, 0.0, 3.0], arr)
        assert 1 not in expr.coeffs

    def test_dot_length_mismatch(self, lp):
        arr = lp.new_variable_array("x", 3)
        with pytest.raises(ModelError):
            dot([1.0, 2.0], arr)

    def test_dot_accepts_numpy(self, lp):
        arr = lp.new_variable_array("x", 2)
        expr = dot(np.array([0.5, 1.5]), arr)
        assert expr.coeffs == {0: 0.5, 1: 1.5}

    def test_lin_sum(self, lp):
        arr = lp.new_variable_array("x", 3)
        expr = lin_sum(arr)
        assert expr.coeffs == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_lin_sum_with_scalars_and_exprs(self, lp):
        x = lp.new_variable("x")
        expr = lin_sum([x, 2.0, x * 3.0])
        assert expr.coeffs == {0: 4.0}
        assert expr.constant == 2.0

    def test_lin_sum_empty(self):
        expr = lin_sum([])
        assert expr.is_constant()
        assert expr.constant == 0.0
