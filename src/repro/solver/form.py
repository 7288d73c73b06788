"""The matrix form every program is built in, and the one call that solves it.

Every allocator assembles its program directly as a :class:`StandardForm`:

    minimise    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lower <= x <= upper   (element-wise; None = unbounded)

Maximisation is kept in that convention by storing ``-c`` and setting
``maximise``, which negates the objective again at read-back time.  The
row matrices are :class:`CSR` records: three arrays, no ``scipy.sparse``.

:func:`solve_form` is three steps: the input screen, one cold HiGHS run
(:func:`~repro.solver.incremental.solve_once`), and the objective
read-back.  HiGHS is the only solver; a run that ends short of an optimum
raises — :class:`~repro.exceptions.InfeasibleError` and
:class:`~repro.exceptions.UnboundedError` for verdicts, a plain
:class:`~repro.exceptions.SolverError` for everything else.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ModelError
from repro.solver.incremental import solve_once


class CSR:
    """A compressed-sparse-row matrix: the three arrays HiGHS loads rowwise.

    The attribute names are scipy's (``data``, ``indices``, ``indptr``,
    ``shape``, ``nnz``); ``data`` is float64 and the index arrays are
    int32, HiGHS's index type and the one scipy picks at these sizes.  It
    has no arithmetic: the row builders write the arrays directly and
    :meth:`vstack` stacks them.  Wrap the arrays in
    ``scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)`` for
    anything else.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape: Tuple[int, int]):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @classmethod
    def vstack(cls, blocks: Sequence["CSR"]) -> "CSR":
        """The blocks' rows one under another: the arrays scipy's
        ``vstack(blocks, format="csr")`` makes of CSR blocks, byte for byte."""
        if len({block.shape[1] for block in blocks}) != 1:
            raise ValueError("CSR.vstack needs blocks with one column count")
        offsets = np.cumsum([0] + [block.nnz for block in blocks])
        starts = [block.indptr[:-1] + offset for block, offset in zip(blocks, offsets)]
        return cls(
            np.concatenate([block.data for block in blocks]),
            np.concatenate([block.indices for block in blocks]),
            np.concatenate(starts + [offsets[-1:]]),
            (sum(block.shape[0] for block in blocks), blocks[0].shape[1]),
        )


MatrixLike = Union[CSR, np.ndarray]
Bounds = Union[List[Tuple[Optional[float], Optional[float]]], np.ndarray]


@functools.lru_cache(maxsize=64)
def nonnegative_bounds(count: int) -> np.ndarray:
    """``[(0.0, None)] * count`` as the ``(count, 2)`` array the screen makes
    of it: read-only, one per count, shared by every form that uses it.
    Column-major, so each column is the contiguous array HiGHS loads."""
    bounds = np.zeros((count, 2), order="F")
    bounds[:, 1] = np.inf
    bounds.setflags(write=False)
    return bounds


def _as_csr(matrix) -> CSR:
    """``matrix`` as a :class:`CSR`, as scipy's ``csr_matrix(matrix)`` stores it.

    A 2-D ndarray drops its zeros and keeps row-major order; any other
    object with a ``tocsr()`` (a scipy sparse matrix) converts itself.
    """
    if isinstance(matrix, CSR):
        return matrix
    if isinstance(matrix, np.ndarray) and matrix.ndim == 2:
        rows, columns = np.nonzero(matrix)
        starts = np.searchsorted(rows, np.arange(matrix.shape[0] + 1))
        return CSR(matrix[rows, columns], columns, starts, matrix.shape)
    if not callable(getattr(matrix, "tocsr", None)):
        raise ModelError(f"malformed LP: a {type(matrix).__name__} is not a matrix")
    converted = matrix.tocsr()
    return CSR(converted.data, converted.indices, converted.indptr, converted.shape)


@dataclass
class StandardForm:
    """Matrix form consumed by :func:`solve_form` (minimisation convention).

    ``a_ub``/``a_eq`` are :class:`CSR` records as every builder here makes
    them; :func:`solve_form` also takes a dense ndarray (stored as
    ``csr_matrix`` would) or a scipy sparse matrix (via its ``tocsr()``).
    ``bounds`` is one ``(lower, upper)`` pair per column (``None``:
    unbounded) or, as the builders here hand it, an ``(n, 2)`` float
    array with infinities for none (:func:`nonnegative_bounds`).
    """

    c: np.ndarray
    a_ub: Optional[MatrixLike]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[MatrixLike]
    b_eq: Optional[np.ndarray]
    bounds: Bounds
    maximise: bool
    offset: float = 0.0
    #: False where HiGHS presolve is known to reduce nothing (Eq. 10 on
    #: positive capacities): the solve skips it, same bits sooner
    presolve: bool = True

    @property
    def num_variables(self) -> int:
        return int(self.c.shape[0])


@dataclass(frozen=True)
class SolveStats:
    """Bookkeeping about one solve, used by the overhead experiments."""

    solve_seconds: float
    # num_variables, num_constraints and warm_start_used stay: bench/layers.py reads them
    num_variables: int
    num_constraints: int
    #: always False since 3.0, which removed LP warm starts
    warm_start_used: bool = False


@dataclass(frozen=True)
class Solution:
    """An optimal point, its objective value and its row duals.

    ``duals`` are HiGHS's row duals in the screen's stacked order
    (``A_ub`` rows, then ``A_eq`` rows) and the sign of scipy's
    ``marginals``: for a ``maximise`` form, ``-duals`` is a feasible
    solution of the dual program, so ``b @ -duals`` bounds the objective.
    """

    values: np.ndarray
    objective: float
    stats: SolveStats
    duals: Optional[np.ndarray] = None


def _screen(form: StandardForm) -> Tuple[np.ndarray, CSR, np.ndarray, np.ndarray]:
    """What scipy's front end made of a form: screened and stacked.

    ``(bounds, rows, row_lower, row_upper)``: ``(n, 2)`` column bounds,
    ``A_ub`` over ``A_eq`` as one :class:`CSR`, and the row bounds
    ``(-inf, b_ub)`` / ``(b_eq, b_eq)``.  HiGHS would take a NaN cost and
    hand back a point, so shapes and non-finite numbers are refused here,
    before the solve, as is a matrix of no known kind.  The shared
    :func:`nonnegative_bounds` array is its own screen and comes back as it is.
    """
    num_vars, bounds = form.c.shape[0], form.bounds
    ok = np.isfinite(form.c).all()
    if bounds is not nonnegative_bounds(num_vars):
        bounds = np.array(bounds, dtype=float).reshape(-1, 2)  # None -> nan
        bounds = np.where(np.isnan(bounds), (-np.inf, np.inf), bounds)
        # a lower bound of +inf or an upper bound of -inf fails its test
        ok = ok and bounds.shape[0] == num_vars and (
            bounds[:, 0].max(initial=-np.inf) < np.inf
            and bounds[:, 1].min(initial=np.inf) > -np.inf
        )
    blocks, lower, upper = [], [], []
    for matrix, rhs, equality in ((form.a_ub, form.b_ub, False), (form.a_eq, form.b_eq, True)):
        if ok and matrix is not None:
            matrix, rhs = _as_csr(matrix), np.asarray(rhs, dtype=float)
            ok = (
                matrix.shape == (len(rhs), num_vars)
                and np.isfinite(matrix.data).all()
                and np.isfinite(rhs).all()
            )
            blocks.append(matrix)
            lower.append(rhs if equality else np.full(len(rhs), -np.inf))
            upper.append(rhs)
    if not ok:
        raise ModelError("malformed LP: mismatched shapes or non-finite coefficients")
    if len(blocks) == 1:  # stacking one block copies its arrays, bit for bit
        return bounds, blocks[0], lower[0], upper[0]
    if not blocks:
        return bounds, CSR([], [], [0], (0, num_vars)), np.zeros(0), np.zeros(0)
    return bounds, CSR.vstack(blocks), np.concatenate(lower), np.concatenate(upper)


def solve_form(form: StandardForm) -> Solution:
    """Solve a :class:`StandardForm` with HiGHS: screen, solve, read back."""
    start = time.perf_counter()
    bounds, rows, row_lower, row_upper = _screen(form)
    values, duals = solve_once(
        form.c, bounds[:, 0], bounds[:, 1], rows, row_lower, row_upper, form.presolve
    )
    elapsed = time.perf_counter() - start

    raw_objective = float(form.c @ values)
    objective = (-raw_objective if form.maximise else raw_objective) + form.offset
    stats = SolveStats(
        solve_seconds=elapsed,
        num_variables=form.num_variables,
        num_constraints=rows.shape[0],
    )
    return Solution(values=values, objective=objective, stats=stats, duals=duals)
