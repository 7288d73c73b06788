"""A from-scratch sparse revised-simplex LP solver: the test oracle for HiGHS.

HiGHS is the package's only solver; this file cross-checks it from the
test suite.  The solve is a classic two-phase simplex, run *revised*
over sparse matrices instead of on a dense tableau:

1. Standardise: shift finite lower bounds to zero, split free variables
   into positive/negative parts, turn finite upper bounds into extra rows,
   add slack variables for all inequalities — assembled as one vectorized
   ``scipy.sparse`` block composition (no Python-level row loops).
2. Phase 1: start from the all-artificial basis and minimise the sum of
   artificials to find a basic feasible solution (Bland's rule, so it
   terminates).
3. Phase 2: minimise the real objective from that basis.

The working state is a *factorised basis*: an LU factorisation
(``scipy.sparse.linalg.splu``) of a recent basis matrix plus a short
product-form chain of eta updates, refreshed incrementally on every pivot
and refactorised periodically.  Each iteration costs one BTRAN (pricing),
one sparse mat-vec (reduced costs), and one FTRAN (pivot column) — never
an O(rows x cols) tableau sweep.  Pricing and the ratio test replicate
the classic tableau rules exactly (Bland's smallest-index entering rule,
the same leaving tie-break on basis indices).  Numerical breakdown (a
singular refactorisation, the iteration cap) raises
:class:`~repro.exceptions.SolverError`.

:func:`simplex_solve_form` has :func:`repro.solver.solve_form`'s
signature and result type, so a test can swap it in for an allocator's
module-level ``solve_form`` and run that allocator on the simplex.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.exceptions import InfeasibleError, SolverError, UnboundedError
from repro.solver import CSR, Solution, SolveStats, StandardForm
from scipy_csr import to_scipy

_TOL = 1e-9

#: Phase-1 feasibility verdict threshold.  Deliberately looser than the
#: per-pivot ``_TOL``: the phase-1 objective is the *sum* of up to ``m``
#: artificial variables, each carrying rounding accumulated over the whole
#: pivot sequence at the scale of ``|b|``, so residuals of order
#: ``m * eps * scale`` are routine for feasible programs.  Declaring
#: infeasibility at ``_TOL`` would misclassify those; ``1e-7`` keeps two
#: orders of margin over that noise while still catching genuinely
#: infeasible programs (whose phase-1 optimum is bounded away from zero).
_PHASE1_TOL = 1e-7

#: Ratio-test pivots must exceed this fraction of the entering column's
#: largest entry: the absolute ``_TOL`` floor alone admits a ``1e-9``
#: element next to ``O(1)`` ones, and the next refactorisation of that
#: basis is singular (or the iteration stalls on degenerate steps).
_PIVOT_REL_TOL = 1e-7

#: Rebuild the basis LU factorisation after this many eta updates (bounds
#: both the per-solve memory and the error accumulated through the chain).
_REFACTOR_EVERY = 64


@dataclass
class _Column:
    """Maps one internal simplex column back to an original variable."""

    original_index: int
    sign: float  # +1 for the positive part, -1 for the negative part
    offset: float  # original lower bound folded into the shift


def standardise_form(
    form: StandardForm,
) -> Tuple[sparse.csc_matrix, np.ndarray, np.ndarray, List[_Column]]:
    """Rewrite the program as ``min c@y, A@y == b, y >= 0`` (sparse).

    ``A`` comes back as a ``scipy.sparse.csc_matrix`` assembled by block
    composition — the variable-split expansion is one sparse
    matrix-matrix product, upper-bound rows are a row slice of the
    expansion operator, and slacks are an identity block.
    """
    num_original = form.num_variables
    columns: List[_Column] = []
    orig_of: List[int] = []
    sign_of: List[float] = []
    for index, (lower, upper) in enumerate(form.bounds):
        if lower is None:
            # free (or upper-bounded only): split into two parts
            columns.append(_Column(index, +1.0, 0.0))
            columns.append(_Column(index, -1.0, 0.0))
            orig_of.extend((index, index))
            sign_of.extend((1.0, -1.0))
        else:
            columns.append(_Column(index, +1.0, lower))
            orig_of.append(index)
            sign_of.append(1.0)
    num_internal = len(columns)
    orig_idx = np.asarray(orig_of, dtype=np.int64)
    signs = np.asarray(sign_of, dtype=float)

    # expansion operator E (original x internal): x = E @ y + shift
    expand = sparse.csr_matrix(
        (signs, (orig_idx, np.arange(num_internal))),
        shape=(num_original, num_internal),
    )
    shift = np.array(
        [0.0 if lower is None else lower for lower, _upper in form.bounds]
    )

    def _sparse(matrix) -> Optional[sparse.csr_matrix]:
        if matrix is None:
            return None
        if isinstance(matrix, CSR):
            return to_scipy(matrix)
        if sparse.issparse(matrix):
            return matrix.tocsr()
        return sparse.csr_matrix(np.atleast_2d(np.asarray(matrix, dtype=float)))

    a_ub = _sparse(form.a_ub)
    a_eq = _sparse(form.a_eq)
    ub_matrix = None if a_ub is None else a_ub @ expand
    ub_rhs = None if a_ub is None else form.b_ub - a_ub @ shift
    eq_matrix = None if a_eq is None else a_eq @ expand
    eq_rhs = None if a_eq is None else form.b_eq - a_eq @ shift

    # upper bounds become extra inequality rows on the shifted variable:
    # the bound row for variable v is exactly row v of the expansion E
    upper_mask = np.array([upper is not None for _lower, upper in form.bounds])
    bound_block = None
    bound_rhs = None
    if upper_mask.any():
        bound_block = expand[upper_mask]
        uppers = np.array(
            [0.0 if upper is None else upper for _lower, upper in form.bounds]
        )
        bound_rhs = (uppers - shift)[upper_mask]

    ineq_pieces = [piece for piece in (ub_matrix, bound_block) if piece is not None]
    ineq_rhs_pieces = [rhs for rhs in (ub_rhs, bound_rhs) if rhs is not None]
    num_ineq = sum(piece.shape[0] for piece in ineq_pieces)
    num_eq = 0 if eq_matrix is None else eq_matrix.shape[0]

    total_rows = num_ineq + num_eq
    total_cols = num_internal + num_ineq  # slacks for inequalities
    blocks = []
    if num_ineq:
        blocks.append(
            [sparse.vstack(ineq_pieces, format="csr"), sparse.identity(num_ineq, format="csr")]
        )
    if num_eq:
        blocks.append(
            [eq_matrix, sparse.csr_matrix((num_eq, num_ineq))] if num_ineq else [eq_matrix]
        )
    if blocks:
        a_full = sparse.bmat(blocks, format="csr")
        b_full = np.concatenate(
            [np.asarray(rhs, dtype=float) for rhs in ineq_rhs_pieces]
            + ([np.asarray(eq_rhs, dtype=float)] if num_eq else [])
        )
    else:
        a_full = sparse.csr_matrix((0, total_cols))
        b_full = np.zeros(0)

    # make all right-hand sides non-negative
    negative = b_full < 0
    if negative.any():
        flip = np.where(negative, -1.0, 1.0)
        a_full = sparse.diags(flip) @ a_full
        b_full = flip * b_full

    c_full = np.zeros(total_cols)
    np.add.at(c_full, np.arange(num_internal), signs * form.c[orig_idx])

    return a_full.tocsc(), b_full, c_full, columns


def unfold_internal(
    form: StandardForm, columns: List[_Column], internal: np.ndarray
) -> np.ndarray:
    """Map a standardised-space point back to original variables.

    The inverse of :func:`standardise_form`'s variable treatment
    (re-merge split free variables, re-apply lower-bound shifts).
    """
    values = np.zeros(form.num_variables)
    num_internal = len(columns)
    orig_idx = np.fromiter(
        (column.original_index for column in columns), dtype=np.int64, count=num_internal
    )
    signs = np.fromiter(
        (column.sign for column in columns), dtype=float, count=num_internal
    )
    np.add.at(values, orig_idx, signs * np.asarray(internal[:num_internal], dtype=float))
    for index, (lower, _upper) in enumerate(form.bounds):
        if lower is not None:
            values[index] += lower
    return values


class _FactorisedBasis:
    """An LU-factorised basis matrix with product-form eta updates.

    ``B = B0 @ E_1 @ ... @ E_k`` where ``B0`` is the last refactorised
    basis (``splu``) and each ``E_i`` is an eta matrix — identity except
    for one column holding the FTRAN'd entering column of that pivot.
    FTRAN applies the etas forward after the LU solve; BTRAN applies
    their transposes in reverse before the transposed LU solve.
    """

    def __init__(self, a_csc: sparse.csc_matrix, basis: np.ndarray):
        self.a = a_csc
        self.refactor(basis)

    def refactor(self, basis: np.ndarray) -> None:
        matrix = self.a[:, basis].tocsc()
        try:
            self._lu = sparse_linalg.splu(matrix)
        except RuntimeError as error:  # singular basis: numerical breakdown
            raise SolverError(f"basis refactorisation failed: {error}") from error
        self._etas: List[Tuple[int, np.ndarray]] = []

    @property
    def eta_count(self) -> int:
        return len(self._etas)

    def update(self, pivot_row: int, ftran_column: np.ndarray) -> None:
        """Record the pivot ``basis[pivot_row] <- entering`` as an eta."""
        self._etas.append((pivot_row, ftran_column))

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B x = rhs``."""
        x = self._lu.solve(rhs)
        for row, d in self._etas:
            xr = x[row] / d[row]
            x -= d * xr
            x[row] = xr
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B^T y = rhs``."""
        y = np.asarray(rhs, dtype=float).copy()
        for row, d in reversed(self._etas):
            y[row] = (y[row] - d @ y + d[row] * y[row]) / d[row]
        return self._lu.solve(y, trans="T")


class _RevisedSolver:
    """One two-phase revised-simplex run over a standardised system."""

    def __init__(self, a: sparse.csc_matrix, b: np.ndarray, c: np.ndarray, max_iterations: int):
        self.num_rows, self.num_structural = a.shape
        self.max_iterations = max_iterations
        # working matrix [A | I]: artificial columns appended once, used
        # as the phase-1 basis and (at zero cost) through phase 2
        self.full = sparse.hstack(
            [a, sparse.identity(self.num_rows, format="csc")], format="csc"
        )
        self.full_t = self.full.T.tocsr()
        self.b = b
        self.c = c
        self.basis = np.arange(
            self.num_structural, self.num_structural + self.num_rows, dtype=np.int64
        )
        self.in_basis = np.zeros(self.full.shape[1], dtype=bool)
        self.in_basis[self.basis] = True
        self.factor = _FactorisedBasis(self.full, self.basis)
        self.x_basic = b.astype(float).copy()

    # -- low-level helpers -------------------------------------------------
    def _column(self, index: int) -> np.ndarray:
        start, stop = self.full.indptr[index], self.full.indptr[index + 1]
        column = np.zeros(self.num_rows)
        column[self.full.indices[start:stop]] = self.full.data[start:stop]
        return column

    def _refactor(self) -> None:
        self.factor.refactor(self.basis)
        # recompute the basic point from scratch to shed eta-chain drift
        self.x_basic = self.factor.ftran(self.b.astype(float))

    def _pivot(self, entering: int, leaving_row: int, direction: np.ndarray) -> None:
        step = self.x_basic[leaving_row] / direction[leaving_row]
        self.x_basic -= step * direction
        self.x_basic[leaving_row] = step
        self.in_basis[self.basis[leaving_row]] = False
        self.in_basis[entering] = True
        self.basis[leaving_row] = entering
        self.factor.update(leaving_row, direction)
        if self.factor.eta_count >= _REFACTOR_EVERY:
            self._refactor()

    # -- simplex loops -----------------------------------------------------
    def _pivot_loop(self, costs: np.ndarray, allowed: int) -> None:
        """Bland's-rule pivoting until optimal (or raise on unbounded).

        ``allowed`` bounds the entering-column index range, mirroring the
        tableau's ``allowed_cols`` (phase 1 admits artificials back in,
        phase 2 restricts to structural columns).
        """
        for _iteration in range(self.max_iterations):
            duals = self.factor.btran(costs[self.basis])
            reduced = costs[:allowed] - self.full_t[:allowed] @ duals
            eligible = (reduced < -_TOL) & ~self.in_basis[:allowed]
            entering_candidates = np.nonzero(eligible)[0]
            if entering_candidates.shape[0] == 0:
                return
            entering = int(entering_candidates[0])  # Bland: smallest index
            direction = self.factor.ftran(self._column(entering))
            leaving = self._ratio_test(direction)
            if leaving is None:
                raise UnboundedError(
                    "entering column has no positive pivot: unbounded LP"
                )
            self._pivot(entering, leaving, direction)
        raise SolverError(f"simplex exceeded {self.max_iterations} iterations")

    def _ratio_test(self, direction: np.ndarray) -> Optional[int]:
        """Leaving row: minimum ratio, ties to the smallest basis index."""
        leaving = None
        best_ratio = np.inf
        threshold = max(_TOL, _PIVOT_REL_TOL * float(np.abs(direction).max(initial=0.0)))
        for row in np.nonzero(direction > threshold)[0]:
            ratio = self.x_basic[row] / direction[row]
            if ratio < best_ratio - _TOL or (
                abs(ratio - best_ratio) <= _TOL
                and (leaving is None or self.basis[row] < self.basis[leaving])
            ):
                best_ratio = ratio
                leaving = int(row)
        return leaving

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials out on any structural non-zero.

        A row whose artificial admits no structural pivot is redundant;
        its artificial stays basic at value 0 (phase 2 never prices
        artificial columns, so it can only stay there).
        """
        for row in range(self.num_rows):
            if self.basis[row] < self.num_structural:
                continue
            unit = np.zeros(self.num_rows)
            unit[row] = 1.0
            tableau_row = self.full_t[: self.num_structural] @ self.factor.btran(unit)
            candidates = np.nonzero(
                (np.abs(tableau_row) > _TOL) & ~self.in_basis[: self.num_structural]
            )[0]
            if candidates.shape[0] == 0:
                continue  # redundant row
            entering = int(candidates[0])
            direction = self.factor.ftran(self._column(entering))
            self._pivot(entering, row, direction)

    def solve(self) -> Tuple[np.ndarray, List[int]]:
        if self.num_rows == 0:
            if np.any(self.c < -_TOL):
                raise UnboundedError("objective improves without constraints")
            return np.zeros(self.num_structural), []

        # phase 1: minimise the sum of artificials from the identity basis
        phase1_costs = np.zeros(self.full.shape[1])
        phase1_costs[self.num_structural :] = 1.0
        self._pivot_loop(phase1_costs, allowed=self.full.shape[1])
        phase1_objective = float(phase1_costs[self.basis] @ self.x_basic)
        if phase1_objective > _PHASE1_TOL:
            raise InfeasibleError(
                f"phase-1 objective {phase1_objective:.3g} > 0: no feasible point"
            )
        self._drive_out_artificials()

        # phase 2: the real objective, artificials priced out
        phase2_costs = np.zeros(self.full.shape[1])
        phase2_costs[: self.num_structural] = self.c
        self._pivot_loop(phase2_costs, allowed=self.num_structural)

        values = np.zeros(self.num_structural)
        structural = self.basis < self.num_structural
        values[self.basis[structural]] = self.x_basic[structural]
        return values, [int(index) for index in self.basis]


class SimplexBackend:
    """Two-phase revised simplex over a :class:`StandardForm`."""

    def __init__(self, max_iterations: int = 100_000):
        self.max_iterations = max_iterations

    def solve(self, form: StandardForm) -> np.ndarray:
        """The optimal point of ``form``, in its original variables."""
        if isinstance(form.bounds, np.ndarray):  # (n, 2), infinities for none
            form = replace(form, bounds=[
                (None if lower == -np.inf else lower, None if upper == np.inf else upper)
                for lower, upper in form.bounds.tolist()
            ])
        a_full, b_full, c_full, columns = standardise_form(form)
        internal, _basis = _RevisedSolver(
            a_full, b_full, c_full, self.max_iterations
        ).solve()
        return unfold_internal(form, columns, internal)


def simplex_solve_form(form: StandardForm) -> Solution:
    """:func:`repro.solver.solve_form` with the simplex in place of HiGHS."""
    values = SimplexBackend().solve(form)
    raw_objective = float(form.c @ values)
    objective = (-raw_objective if form.maximise else raw_objective) + form.offset
    rows = sum(
        0 if matrix is None else int(matrix.shape[0]) for matrix in (form.a_ub, form.a_eq)
    )
    return Solution(
        values=values,
        objective=objective,
        stats=SolveStats(
            solve_seconds=0.0, num_variables=form.num_variables, num_constraints=rows
        ),
        # the simplex keeps no duals: zeros certify nothing, so every PE
        # check of an answer solved here falls back to its LP
        duals=np.zeros(rows),
    )


@contextmanager
def allocators_on_simplex():
    """Route the OEF allocators' one-shot solves through the simplex."""
    import repro.core.cooperative as cooperative
    import repro.core.noncooperative as noncooperative

    with pytest.MonkeyPatch.context() as patch:
        for module in (cooperative, noncooperative):
            patch.setattr(module, "solve_form", simplex_solve_form)
        yield
