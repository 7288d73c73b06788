"""The LP modelling DSL, kept as a test oracle for hand-written forms.

Every allocator in ``repro`` builds its :class:`~repro.solver.StandardForm`
directly.  This module is the declarative model those forms replaced —
scalar :class:`Variable` handles, affine :class:`LinExpr` algebra, and a
:class:`LinearProgram` that collects constraints and an objective and
compiles them to the matrix standard form:

    minimise    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lower <= x <= upper   (element-wise; None = unbounded)

Maximisation negates ``c`` at compile time (unused columns end as
``-0.0``).  Expression ``<=`` rows come first, then the ``>=`` rows
negated, then bulk matrix blocks; a system of at most
``_DENSE_CELL_LIMIT`` cells is densified.  Tests hold each hand-written
form to this compile, and solve it on HiGHS or on the simplex oracle::

    lp = LinearProgram("demo")
    x = lp.new_variable_array("x", (2, 2))
    lp.add_constraint(x[0, 0] + x[1, 0] <= 1.0)
    lp.set_objective(2.0 * x[0, 0] + x[1, 1], sense="max")
    solution = lp.solve()          # or lp.solve(backend="simplex")
    solution.value(x[0, 0])
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from reference_simplex import simplex_solve_form
from repro.exceptions import ModelError
from repro.solver import Solution, StandardForm, solve_form

Scalar = Union[int, float, np.integer, np.floating]
ExprLike = Union["Variable", "LinExpr", Scalar]


def _is_scalar(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class Variable:
    """A scalar decision variable.

    Instances are created by :meth:`LinearProgram.new_variable` and carry a
    global column index within their owning program.  All arithmetic
    promotes to :class:`LinExpr`.
    """

    __slots__ = ("index", "name", "lower", "upper")

    def __init__(self, index: int, name: str, lower: float | None, upper: float | None):
        self.index = index
        self.name = name
        self.lower = lower
        self.upper = upper

    # -- promotion -------------------------------------------------------
    def to_expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() - other

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (-self.to_expr()) + other

    def __mul__(self, other: Scalar) -> "LinExpr":
        return self.to_expr() * other

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "LinExpr":
        return self.to_expr() / other

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    # -- comparisons build constraints ------------------------------------
    def __le__(self, other: ExprLike):
        return self.to_expr() <= other

    def __ge__(self, other: ExprLike):
        return self.to_expr() >= other

    def __eq__(self, other: object):  # type: ignore[override]
        return self.to_expr() == other

    def __hash__(self) -> int:
        return hash(("Variable", self.index))

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, index={self.index})"


class LinExpr:
    """An affine expression ``sum(coeff_i * x_i) + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Dict[int, float] | None = None, constant: float = 0.0):
        self.coeffs: Dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def coerce(value: ExprLike) -> "LinExpr":
        """Promote a variable or scalar to a :class:`LinExpr`."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value.to_expr()
        if _is_scalar(value):
            return LinExpr({}, float(value))
        raise ModelError(f"cannot use {value!r} in a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.constant)

    def is_constant(self) -> bool:
        return not self.coeffs

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: ExprLike) -> "LinExpr":
        other = LinExpr.coerce(other)
        result = self.copy()
        for index, coeff in other.coeffs.items():
            result.coeffs[index] = result.coeffs.get(index, 0.0) + coeff
        result.constant += other.constant
        return result

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self + (LinExpr.coerce(other) * -1.0)

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, other: Scalar) -> "LinExpr":
        if not _is_scalar(other):
            raise ModelError("linear expressions only support scalar multiplication")
        factor = float(other)
        return LinExpr(
            {index: coeff * factor for index, coeff in self.coeffs.items()},
            self.constant * factor,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "LinExpr":
        if not _is_scalar(other):
            raise ModelError("linear expressions only support scalar division")
        if other == 0:
            raise ModelError("division of a linear expression by zero")
        return self * (1.0 / float(other))

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons ------------------------------------------------------
    def __le__(self, other: ExprLike):
        return Constraint(self - LinExpr.coerce(other), "<=")

    def __ge__(self, other: ExprLike):
        return Constraint(self - LinExpr.coerce(other), ">=")

    def __eq__(self, other: object):  # type: ignore[override]
        return Constraint(self - LinExpr.coerce(other), "==")

    def __hash__(self) -> int:  # required because __eq__ is overloaded
        return id(self)

    def __repr__(self) -> str:
        terms = " + ".join(f"{coeff:g}*x{index}" for index, coeff in sorted(self.coeffs.items()))
        if not terms:
            return f"LinExpr({self.constant:g})"
        if self.constant:
            return f"LinExpr({terms} + {self.constant:g})"
        return f"LinExpr({terms})"


def dot(coefficients: Sequence[Scalar] | np.ndarray, variables: Iterable[Variable]) -> LinExpr:
    """Inner product of a numeric vector with a vector of variables.

    This is the fast path for building expressions like ``W_l . x_l``: it
    avoids the quadratic cost of repeated ``LinExpr.__add__`` calls.
    """
    coeff_array = np.asarray(coefficients, dtype=float).ravel()
    variable_list = list(variables)
    if coeff_array.shape[0] != len(variable_list):
        raise ModelError(
            f"dot length mismatch: {coeff_array.shape[0]} coefficients "
            f"vs {len(variable_list)} variables"
        )
    coeffs: Dict[int, float] = {}
    for coeff, variable in zip(coeff_array, variable_list):
        if coeff == 0.0:
            continue
        coeffs[variable.index] = coeffs.get(variable.index, 0.0) + float(coeff)
    return LinExpr(coeffs, 0.0)


def lin_sum(terms: Iterable[ExprLike]) -> LinExpr:
    """Sum of expressions, variables, and scalars (linear-time)."""
    coeffs: Dict[int, float] = {}
    constant = 0.0
    for term in terms:
        expr = LinExpr.coerce(term)
        constant += expr.constant
        for index, coeff in expr.coeffs.items():
            coeffs[index] = coeffs.get(index, 0.0) + coeff
    return LinExpr(coeffs, constant)


_SENSES = ("<=", ">=", "==")

MatrixLike = Union[np.ndarray, sparse.spmatrix]

# Above this many cells, inequality/equality systems are kept sparse.
_DENSE_CELL_LIMIT = 4_000_000


class Constraint:
    """A single linear constraint ``expr (sense) 0``.

    Stored in homogeneous form: the right-hand side has already been moved
    into the expression's constant, so the constraint reads
    ``coeffs @ x + constant <= 0`` (or ``>=``/``==``).
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: str, name: str = ""):
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    def __repr__(self) -> str:
        return f"Constraint({self.expr!r} {self.sense} 0)"


@dataclass
class _MatrixBlock:
    """Bulk constraints: ``matrix @ block_vars (sense) rhs`` row-wise."""

    matrix: MatrixLike
    column_indices: np.ndarray
    sense: str
    rhs: np.ndarray


@dataclass
class _Objective:
    expr: LinExpr
    maximise: bool


def _as_coo(matrix: MatrixLike) -> sparse.coo_matrix:
    if sparse.issparse(matrix):
        return matrix.tocoo()
    return sparse.coo_matrix(np.atleast_2d(np.asarray(matrix, dtype=float)))


class LinearProgram:
    """A declarative linear program, in the spirit of cvxpy's interface."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []
        self._matrix_blocks: List[_MatrixBlock] = []
        self._objective: Optional[_Objective] = None
        # the compiled StandardForm; cleared on any model mutation so
        # solve() never re-assembles an unchanged program
        self._compiled: Optional[StandardForm] = None

    def _invalidate(self) -> None:
        self._compiled = None

    # -- variables --------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        rows = len(self._constraints)
        rows += sum(block.matrix.shape[0] for block in self._matrix_blocks)
        return rows

    def new_variable(
        self,
        name: str,
        lower: Optional[float] = 0.0,
        upper: Optional[float] = None,
    ) -> Variable:
        """Create one scalar variable (default bounds: ``x >= 0``)."""
        if lower is not None and upper is not None and lower > upper:
            raise ModelError(f"variable {name!r}: lower bound {lower} > upper bound {upper}")
        variable = Variable(len(self._variables), name, lower, upper)
        self._variables.append(variable)
        self._invalidate()
        return variable

    def new_variable_array(
        self,
        name: str,
        shape: int | Tuple[int, ...],
        lower: Optional[float] = 0.0,
        upper: Optional[float] = None,
    ) -> np.ndarray:
        """Create an ndarray of scalar variables with a shared bound spec."""
        if isinstance(shape, int):
            shape = (shape,)
        array = np.empty(shape, dtype=object)
        for index in np.ndindex(*shape):
            suffix = ",".join(str(i) for i in index)
            array[index] = self.new_variable(f"{name}[{suffix}]", lower, upper)
        return array

    # -- constraints ------------------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a Constraint (build one with <=, >= or ==)"
            )
        if name:
            constraint.name = name
        self._check_indices(constraint.expr)
        self._constraints.append(constraint)
        self._invalidate()
        return constraint

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    def add_matrix_constraints(
        self,
        matrix: MatrixLike,
        variables: Sequence[Variable],
        sense: str,
        rhs: np.ndarray | Sequence[float] | float,
    ) -> None:
        """Add ``matrix @ variables (sense) rhs`` as a block of rows.

        ``matrix`` is ``(rows, len(variables))``, dense or scipy-sparse;
        ``rhs`` broadcasts to ``rows``.
        """
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        if not sparse.issparse(matrix):
            matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        column_indices = np.asarray([variable.index for variable in variables], dtype=int)
        if matrix.shape[1] != column_indices.shape[0]:
            raise ModelError(
                f"matrix has {matrix.shape[1]} columns but {column_indices.shape[0]} "
                "variables were supplied"
            )
        if column_indices.size and (
            column_indices.min() < 0 or column_indices.max() >= self.num_variables
        ):
            raise ModelError("constraint references a variable from another program")
        # index bounds alone cannot catch a foreign variable whose index
        # happens to be small; the handle identity can (mirrors
        # _check_indices, which only sees bare indices)
        own = self._variables
        if any(own[variable.index] is not variable for variable in variables):
            raise ModelError("constraint references a variable from another program")
        rhs_array = np.broadcast_to(np.asarray(rhs, dtype=float), (matrix.shape[0],)).copy()
        self._matrix_blocks.append(_MatrixBlock(matrix, column_indices, sense, rhs_array))
        self._invalidate()

    def _check_indices(self, expr: LinExpr) -> None:
        for index in expr.coeffs:
            if index >= self.num_variables or index < 0:
                raise ModelError("expression references a variable from another program")

    # -- objective ---------------------------------------------------------
    def set_objective(self, expr: LinExpr | Variable | float, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"objective sense must be 'min' or 'max', got {sense!r}")
        expression = LinExpr.coerce(expr)
        self._check_indices(expression)
        self._objective = _Objective(expression, maximise=(sense == "max"))
        self._invalidate()

    # -- compile ------------------------------------------------------------
    def compile(self) -> StandardForm:
        """Assemble the minimisation standard form for the backends.

        Compilation is memoised: repeated calls on an unchanged program
        (e.g. ``solve()`` on every warm round) return the same
        :class:`StandardForm` without re-assembly.  Any mutation —
        new variable, constraint, or objective — invalidates the cache.
        """
        if self._compiled is not None:
            return self._compiled
        if self._objective is None:
            raise ModelError("no objective set; call set_objective() first")
        num_vars = self.num_variables

        c = np.zeros(num_vars)
        for index, coeff in self._objective.expr.coeffs.items():
            c[index] += coeff
        offset = self._objective.expr.constant
        if self._objective.maximise:
            c = -c

        # collect (coo_block, rhs, negate) pieces per system
        ub_pieces: List[Tuple[sparse.coo_matrix, np.ndarray]] = []
        eq_pieces: List[Tuple[sparse.coo_matrix, np.ndarray]] = []

        if self._constraints:
            rows_idx: List[int] = []
            cols_idx: List[int] = []
            data: List[float] = []
            senses: List[str] = []
            rhs_vals: List[float] = []
            for row_number, constraint in enumerate(self._constraints):
                for index, coeff in constraint.expr.coeffs.items():
                    rows_idx.append(row_number)
                    cols_idx.append(index)
                    data.append(coeff)
                senses.append(constraint.sense)
                rhs_vals.append(-constraint.expr.constant)
            expr_matrix = sparse.coo_matrix(
                (data, (rows_idx, cols_idx)),
                shape=(len(self._constraints), num_vars),
            ).tocsr()
            senses_arr = np.asarray(senses)
            rhs_arr = np.asarray(rhs_vals)
            for sense, flip in (("<=", 1.0), (">=", -1.0)):
                mask = senses_arr == sense
                if mask.any():
                    ub_pieces.append((flip * expr_matrix[mask], flip * rhs_arr[mask]))
            eq_mask = senses_arr == "=="
            if eq_mask.any():
                eq_pieces.append((expr_matrix[eq_mask], rhs_arr[eq_mask]))

        for block in self._matrix_blocks:
            coo = _as_coo(block.matrix)
            expanded = sparse.coo_matrix(
                (coo.data, (coo.row, block.column_indices[coo.col])),
                shape=(block.matrix.shape[0], num_vars),
            )
            if block.sense == "<=":
                ub_pieces.append((expanded, block.rhs))
            elif block.sense == ">=":
                ub_pieces.append((-expanded, -block.rhs))
            else:
                eq_pieces.append((expanded, block.rhs))

        def _assemble(pieces):
            if not pieces:
                return None, None
            matrix = sparse.vstack([piece for piece, _rhs in pieces], format="csr")
            rhs = np.concatenate([rhs for _piece, rhs in pieces])
            if matrix.shape[0] * matrix.shape[1] <= _DENSE_CELL_LIMIT:
                return matrix.toarray(), rhs
            return matrix, rhs

        a_ub, b_ub = _assemble(ub_pieces)
        a_eq, b_eq = _assemble(eq_pieces)

        bounds = [(variable.lower, variable.upper) for variable in self._variables]
        form = StandardForm(
            c=c,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            maximise=self._objective.maximise,
            offset=offset,
        )
        self._compiled = form
        return form

    # -- solve ---------------------------------------------------------------
    def solve(self, backend: str = "highs") -> "ValuedSolution":
        """Compile and solve on ``"highs"`` (the package's solver) or
        ``"simplex"`` (the oracle in :mod:`reference_simplex`)."""
        form = self.compile()
        if backend == "highs":
            solution = solve_form(form)
        elif backend == "simplex":
            solution = simplex_solve_form(form)
        else:
            raise ModelError(f"unknown backend {backend!r}")
        return ValuedSolution(solution.values, solution.objective, solution.stats)


@dataclass(frozen=True)
class ValuedSolution(Solution):
    """A :class:`~repro.solver.Solution` that reads back model handles.

    ``value`` evaluates scalars, variables, expressions, or object arrays
    of variables (returning a float ndarray of the same shape).
    """

    def value(self, item):
        if isinstance(item, Variable):
            return float(self.values[item.index])
        if isinstance(item, LinExpr):
            total = item.constant
            for index, coeff in item.coeffs.items():
                total += coeff * self.values[index]
            return float(total)
        if isinstance(item, np.ndarray) and item.dtype == object:
            out = np.empty(item.shape, dtype=float)
            for index in np.ndindex(*item.shape):
                out[index] = self.value(item[index])
            return out
        raise TypeError(f"cannot evaluate {type(item).__name__} against a solution")
