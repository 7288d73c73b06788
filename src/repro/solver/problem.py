"""The :class:`LinearProgram` model object and its standard-form compiler.

A program collects variables, constraints, and one objective, then compiles
to :class:`StandardForm` — the exact shape that both backends (scipy HiGHS
and the in-repo simplex) consume:

    minimise    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lower <= x <= upper   (element-wise; None = unbounded)

Maximisation is handled by negating ``c`` at compile time and the objective
value at read-back time.

Two constraint-building paths are supported:

* expression constraints via ``lp.add_constraint(expr <= rhs)`` — readable,
  used for small programs and examples;
* bulk matrix rows via :meth:`LinearProgram.add_matrix_constraints` — the
  fast path used by the OEF allocators.  Blocks may be dense numpy arrays
  or ``scipy.sparse`` matrices; the cooperative OEF formulation has
  O(n^2) envy rows, which must stay sparse at the scale of the paper's
  overhead experiment (Fig. 10a, 300 users x 10 GPU types).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import (
    InfeasibleError,
    ModelError,
    SolverError,
    UnboundedError,
)
from repro.solver.expression import LinExpr, Variable
from repro.solver.result import Solution, SolveStats

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
class StandardForm:
    """Matrix form consumed by LP backends (minimisation convention).

    ``a_ub``/``a_eq`` may be dense ndarrays or scipy sparse matrices; the
    scipy backend passes either through, and the simplex backend densifies.
    """

    c: np.ndarray
    a_ub: Optional[MatrixLike]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[MatrixLike]
    b_eq: Optional[np.ndarray]
    bounds: List[Tuple[Optional[float], Optional[float]]]
    maximise: bool
    offset: float = 0.0

    @property
    def num_variables(self) -> int:
        return int(self.c.shape[0])


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
    def solve(self, backend: str = "auto", warm_start=None) -> Solution:
        """Compile and solve; returns a :class:`Solution`.

        ``backend`` is ``"scipy"``, ``"simplex"`` or ``"auto"``.  ``auto``
        runs scipy's HiGHS and, should HiGHS fail for a reason other than
        a provably infeasible/unbounded program, retries with the in-repo
        :class:`~repro.solver.simplex.SimplexBackend` — the self-contained
        fallback.  ``solution.stats.backend`` records the backend that
        actually produced the answer.

        ``warm_start`` accepts the ``warm_state`` of a prior
        :class:`~repro.solver.result.Solution` for a structurally
        identical program.  The state is verified against this program's
        numbers before it is trusted (see :mod:`repro.solver.warm`); on
        a miss the solve silently runs cold, so warm starting never
        changes an answer.  ``solution.stats.warm_start_used`` reports
        which path produced the result, and ``solution.warm_state``
        carries this solve's own evidence forward.
        """
        form = self.compile()
        return solve_form(
            form,
            backend=backend,
            warm_start=warm_start,
            num_constraints=self.num_constraints,
        )


def solve_form(
    form: StandardForm,
    backend: str = "auto",
    warm_start=None,
    num_constraints: Optional[int] = None,
) -> Solution:
    """Solve an already-compiled :class:`StandardForm`.

    The backend-dispatch half of :meth:`LinearProgram.solve`, exposed so
    callers that assemble standard forms directly (the OEF allocators'
    vectorized builders, the batch solver) share one solve path —
    including the ``auto`` fallback contract: try scipy HiGHS, and on a
    :class:`~repro.exceptions.SolverError` that is *not* a definitive
    infeasible/unbounded verdict, retry with the self-contained simplex,
    recording whichever backend produced the answer in
    ``solution.stats.backend``.
    """
    from repro.solver.scipy_backend import ScipyBackend
    from repro.solver.simplex import SimplexBackend

    start = time.perf_counter()
    if backend == "auto":
        backend_used = "scipy"
        try:
            values, warm_state, warm_used = ScipyBackend().solve_with_state(
                form, warm_start
            )
        except (InfeasibleError, UnboundedError):
            raise  # definitive verdicts, not backend failures
        except SolverError:
            backend_used = "simplex"
            values, warm_state, warm_used = SimplexBackend().solve_with_state(
                form, warm_start
            )
    else:
        if backend == "scipy":
            solver = ScipyBackend()
        elif backend == "simplex":
            solver = SimplexBackend()
        else:
            raise ModelError(f"unknown backend {backend!r}")
        backend_used = backend
        values, warm_state, warm_used = solver.solve_with_state(form, warm_start)
    elapsed = time.perf_counter() - start

    raw_objective = float(form.c @ values)
    objective = (-raw_objective if form.maximise else raw_objective) + form.offset
    rows = 0 if form.a_ub is None else int(form.a_ub.shape[0])
    rows += 0 if form.a_eq is None else int(form.a_eq.shape[0])
    stats = SolveStats(
        backend=backend_used,
        solve_seconds=elapsed,
        num_variables=form.num_variables,
        num_constraints=rows if num_constraints is None else num_constraints,
        warm_start_used=warm_used,
    )
    return Solution(
        values=values,
        objective=objective,
        stats=stats,
        warm_state=warm_state,
    )
