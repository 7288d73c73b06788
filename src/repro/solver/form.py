"""The matrix form every program is built in, and the one call that solves it.

Every allocator assembles its program directly as a :class:`StandardForm`:

    minimise    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lower <= x <= upper   (element-wise; None = unbounded)

Maximisation is kept in that convention by storing ``-c`` and setting
``maximise``, which negates the objective again at read-back time.

:func:`solve_form` is three steps: the input screen, one cold HiGHS run
(:func:`~repro.solver.incremental.solve_once`), and the objective
read-back.  HiGHS is the only solver; a run that ends short of an optimum
raises — :class:`~repro.exceptions.InfeasibleError` and
:class:`~repro.exceptions.UnboundedError` for verdicts, a plain
:class:`~repro.exceptions.SolverError` for everything else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError
from repro.solver.incremental import solve_once

MatrixLike = Union[np.ndarray, sparse.spmatrix]


@dataclass
class StandardForm:
    """Matrix form consumed by :func:`solve_form` (minimisation convention).

    ``a_ub``/``a_eq`` may be dense ndarrays or scipy sparse matrices.
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
    """An optimal point plus its objective value."""

    values: np.ndarray
    objective: float
    stats: SolveStats


def _screen(form: StandardForm) -> np.ndarray:
    """``(n, 2)`` column bounds, after the input screen scipy's front end ran.

    HiGHS would take a NaN cost and hand back a point, so shapes and
    non-finite numbers are refused here, before the solve.
    """
    bounds = np.array(form.bounds, dtype=float).reshape(-1, 2)  # None -> nan
    bounds = np.where(np.isnan(bounds), (-np.inf, np.inf), bounds)
    num_vars = form.c.shape[0]
    ok = bounds.shape[0] == num_vars and np.isfinite(form.c).all()
    for matrix, rhs in ((form.a_ub, form.b_ub), (form.a_eq, form.b_eq)):
        if ok and matrix is not None:
            cells = matrix.data if sparse.issparse(matrix) else matrix
            ok = (
                matrix.shape == (len(rhs), num_vars)
                and np.isfinite(cells).all()
                and np.isfinite(rhs).all()
            )
    if not ok or (bounds[:, 0] == np.inf).any() or (bounds[:, 1] == -np.inf).any():
        raise ModelError("malformed LP: mismatched shapes or non-finite coefficients")
    return bounds


def solve_form(form: StandardForm) -> Solution:
    """Solve a :class:`StandardForm` with HiGHS: screen, solve, read back."""
    start = time.perf_counter()
    bounds = _screen(form)
    values, _duals = solve_once(
        form.c, bounds[:, 0], bounds[:, 1], form.a_ub, form.b_ub, form.a_eq, form.b_eq
    )
    elapsed = time.perf_counter() - start

    raw_objective = float(form.c @ values)
    objective = (-raw_objective if form.maximise else raw_objective) + form.offset
    rows = 0 if form.a_ub is None else int(form.a_ub.shape[0])
    rows += 0 if form.a_eq is None else int(form.a_eq.shape[0])
    stats = SolveStats(
        solve_seconds=elapsed,
        num_variables=form.num_variables,
        num_constraints=rows,
    )
    return Solution(values=values, objective=objective, stats=stats)
