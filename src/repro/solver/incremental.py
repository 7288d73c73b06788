"""The one door to scipy's vendored HiGHS: a one-shot solve and a session.

scipy ships the complete ``highspy`` bindings as the private module
``scipy.optimize._highspy``; this file keeps every private-API touch in
one place, behind a feature probe, so callers degrade to
``scipy.optimize.linprog`` when the vendored surface is absent or
changes shape.  :func:`solve_once` is what every one-shot LP runs: the
model and options ``linprog(method="highs")`` would load, without the
flat 1.5-1.9 ms of input cleaning, option checking and result wrapping
``linprog`` spends per call, nor a CSC copy or a new HiGHS instance per
solve (one per thread, cleared per model).  :class:`IncrementalLP` is the
cutting-plane session of :class:`~repro.core.cooperative.CooperativeOEF`:
rows are appended to (or deleted from) a loaded model and the retained
basis warm-starts the next dual-simplex run, which then only has to
price the new rows in.

Determinism: the session pins ``threads=1``/``parallel=off`` and disables
solver output, so repeated runs of the same model produce identical
vertices — the property the allocator's bit-identical replay contract
relies on.

Only the shapes this repository needs are exposed: minimisation over
box-bounded columns with one-sided ``A x <= b`` rows (every OEF program
standardises to that), row append/delete, and basic-status introspection
for slack-based cut dropping.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import InfeasibleError, SolverError, UnboundedError

try:  # pragma: no cover - absence exercised via _core=None monkeypatch
    from scipy.optimize._highspy import _core
except Exception:  # ImportError or a reshaped private API
    _core = None


def incremental_available() -> bool:
    """True when the vendored HiGHS bindings expose the session surface."""
    if _core is None:
        return False
    return all(
        hasattr(_core, name) for name in ("_Highs", "HighsLp", "MatrixFormat")
    ) and all(
        hasattr(_core._Highs, name)
        for name in ("passModel", "clearModel", "run", "addRows", "deleteRows",
                     "getBasis", "getSolution")
    )


_INF = float("inf")


def _model(c, col_lower, col_upper, matrix, row_lower, row_upper):
    """A ``HighsLp`` over a compressed matrix: CSR loads rowwise, CSC colwise.

    The bindings fill their vectors element by element; a list converts
    in half the time an ndarray takes.
    """
    lp = _core.HighsLp()
    lp.num_row_, lp.num_col_ = matrix.shape
    lp.col_cost_ = np.asarray(c, dtype=float).tolist()
    lp.col_lower_ = np.asarray(col_lower, dtype=float).tolist()
    lp.col_upper_ = np.asarray(col_upper, dtype=float).tolist()
    lp.row_lower_ = row_lower.tolist()
    lp.row_upper_ = row_upper.tolist()
    formats = _core.MatrixFormat
    lp.a_matrix_.format_ = formats.kRowwise if matrix.format == "csr" else formats.kColwise
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = matrix.shape
    lp.a_matrix_.start_ = matrix.indptr.tolist()
    lp.a_matrix_.index_ = matrix.indices.tolist()
    lp.a_matrix_.value_ = matrix.data.astype(float).tolist()
    return lp


def _run(highs) -> None:
    """Run a loaded model; anything short of a read-safe optimum raises.

    ``linprog``'s table: infeasible and model-error are verdicts, so is
    unbounded; the rest (presolve's unbounded-or-infeasible included) is
    a plain :class:`SolverError`, which ``backend="auto"`` retries.
    """
    run_status = highs.run()
    status = highs.getModelStatus()
    if status in (_core.HighsModelStatus.kInfeasible, _core.HighsModelStatus.kModelError):
        raise InfeasibleError(f"linear program infeasible (HiGHS {status})")
    if status == _core.HighsModelStatus.kUnbounded:
        raise UnboundedError("linear program unbounded")
    if run_status == _core.HighsStatus.kError or status != _core.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS run failed (status={status})")


#: each thread's one-shot HiGHS instance, built on its first solve
_THREAD = threading.local()


def solve_once(
    c: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    a_ub=None,
    b_ub: Optional[np.ndarray] = None,
    a_eq=None,
    b_eq: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One cold solve of exactly the model ``linprog(method="highs")`` loads.

    ``A_ub`` stacked over ``A_eq``, row bounds ``(-inf, b_ub)`` /
    ``(b_eq, b_eq)``, and only the options scipy sets — not the session's
    ``threads=1`` — so ``x`` and the row duals (stacked row order,
    ``linprog``'s ``marginals`` sign) are ``linprog``'s to the bit.
    Inputs are trusted: the caller screens shapes and non-finite values.

    Neither saving moves a bit.  A CSR matrix loads rowwise, uncopied:
    HiGHS makes it colwise by the row-major sweep ``tocsc`` makes.  The
    instance is this thread's (a forked child inherits it as memory),
    and ``clearModel`` drops model, solution and basis, not options, so
    each run starts where a new instance would.
    """
    b_ub = np.zeros(0) if a_ub is None else np.asarray(b_ub, dtype=float)
    b_eq = np.zeros(0) if a_eq is None else np.asarray(b_eq, dtype=float)
    blocks = [block for block in (a_ub, a_eq) if block is not None]
    if len(blocks) == 2:
        stack = sparse.vstack if any(map(sparse.issparse, blocks)) else np.vstack
        blocks = [stack(blocks)]
    matrix = sparse.csr_matrix(blocks[0] if blocks else (0, len(c)))
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _core._Highs()
        for option, value in (
            ("presolve", "on"),
            ("output_flag", False),
            ("log_to_console", False),
            ("simplex_strategy", 1),  # dual simplex, as scipy pins it
        ):
            highs.setOptionValue(option, value)
    highs.clearModel()
    lp = _model(
        c, col_lower, col_upper, matrix,
        np.concatenate([np.full(b_ub.shape[0], -_INF), b_eq]),
        np.concatenate([b_ub, b_eq]),
    )
    if highs.passModel(lp) == _core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    _run(highs)
    solution = highs.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)


class IncrementalLP:
    """One mutable ``min c@x  s.t.  A x <= b,  l <= x <= u`` HiGHS session.

    Rows appended with :meth:`add_rows` (and removed with
    :meth:`delete_rows`) keep the solver's basis, so the next
    :meth:`solve` is a warm dual-simplex run rather than a cold start.
    """

    def __init__(
        self,
        c: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        a_ub: Optional[sparse.spmatrix] = None,
        b_ub: Optional[np.ndarray] = None,
    ):
        if not incremental_available():
            raise SolverError("vendored HiGHS session API unavailable")
        num_cols = len(c)
        rows = sparse.csr_matrix((0, num_cols)) if a_ub is None else a_ub.tocsr()
        rhs = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
        if rows.shape[0] != rhs.shape[0]:
            raise SolverError("row/rhs shape mismatch")
        lp = _model(
            c, col_lower, col_upper, rows, np.full(rows.shape[0], -_INF), rhs
        )

        self._highs = _core._Highs()
        # deterministic, quiet, single-threaded: same model -> same vertex
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("threads", 1)
        self._highs.setOptionValue("parallel", "off")
        self._highs.passModel(lp)
        self.num_cols = num_cols
        self.num_rows = rows.shape[0]

    # -- row edits ---------------------------------------------------------
    def add_rows(self, matrix: sparse.spmatrix, rhs: np.ndarray) -> None:
        """Append ``matrix @ x <= rhs`` rows, keeping the current basis."""
        rows = matrix.tocsr()
        rhs = np.asarray(rhs, dtype=float)
        count = rows.shape[0]
        if count == 0:
            return
        status = self._highs.addRows(
            count,
            np.full(count, -_INF),
            rhs,
            rows.nnz,
            rows.indptr.astype(np.int32),
            rows.indices.astype(np.int32),
            rows.data.astype(float),
        )
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS addRows failed")
        self.num_rows += count

    def delete_rows(self, indices: Sequence[int]) -> None:
        """Remove rows by current index, keeping the rest of the basis."""
        index_array = np.asarray(sorted(indices), dtype=np.int32)
        if index_array.shape[0] == 0:
            return
        status = self._highs.deleteRows(index_array.shape[0], index_array)
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS deleteRows failed")
        self.num_rows -= index_array.shape[0]

    # -- solve -------------------------------------------------------------
    def solve(self) -> np.ndarray:
        """Re-optimise (warm from the retained basis) and return ``x``."""
        _run(self._highs)
        return np.asarray(self._highs.getSolution().col_value, dtype=float)

    # -- introspection -----------------------------------------------------
    def basic_row_mask(self) -> np.ndarray:
        """Boolean mask of rows whose slack is basic (row not binding)."""
        statuses = self._highs.getBasis().row_status
        codes = np.fromiter(map(int, statuses), dtype=np.int8, count=len(statuses))
        return codes == int(_core.HighsBasisStatus.kBasic)

    def row_values(self) -> np.ndarray:
        """Current ``A x`` row activity vector."""
        return np.asarray(self._highs.getSolution().row_value, dtype=float)


__all__ = ["IncrementalLP", "incremental_available", "solve_once"]
