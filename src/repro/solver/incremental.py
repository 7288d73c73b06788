"""The one door to scipy's vendored HiGHS: a one-shot solve and a session.

scipy ships the complete ``highspy`` bindings as the private extension
module ``scipy.optimize._highspy._core``; this file keeps every
private-API touch in one place, behind a feature probe.  The extension is
loaded from its file, not imported through ``scipy.optimize``: that
package import pulls in ``scipy.linalg``, ``sparse``, ``special`` and
``spatial`` (≈ 0.5 s of a fresh process) for a module that needs numpy
alone.  It is registered under its own dotted name, so a later
``import scipy.optimize`` finds and shares it; one already imported is
reused.  HiGHS is the only solver: when the probe fails (a scipy older
than 1.15, or one whose private surface changed shape),
:func:`solve_once` and :class:`IncrementalLP` raise a
:class:`~repro.exceptions.SolverError` naming the installed scipy.
:func:`solve_once` is what every one-shot LP runs: the model and options
scipy's own HiGHS front end (``method="highs"``) would load, without the
flat 1.5-1.9 ms of input cleaning, option checking and result wrapping
that front end spends per call, nor a CSC copy or a new HiGHS instance
per solve (one per thread, cleared per model).  :class:`IncrementalLP`
is the cutting-plane session of
:class:`~repro.core.cooperative.CooperativeOEF`: rows are appended to
(or deleted from) a loaded model and the retained basis warm-starts the
next dual-simplex run, which then only has to price the new rows in.
Both read a row matrix as the three arrays of a
:class:`~repro.solver.form.CSR` and load it rowwise.

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

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InfeasibleError, SolverError, UnboundedError

#: the extension's name inside scipy, under which ``sys.modules`` holds it
_CORE_NAME = "scipy.optimize._highspy._core"


def _load_core():
    """The vendored HiGHS extension, loaded from its file; ``None`` if scipy has none."""
    if _CORE_NAME in sys.modules:
        return sys.modules[_CORE_NAME]
    scipy_spec = importlib.util.find_spec("scipy")  # finds, does not import
    stem = os.path.join(
        scipy_spec.submodule_search_locations[0], "optimize", "_highspy", "_core"
    )
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(_CORE_NAME, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_CORE_NAME] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[_CORE_NAME]
                raise
            return module
    return None


try:  # pragma: no cover - absence exercised via _core=None monkeypatch
    _core = _load_core()
except Exception:  # no scipy at all, an ImportError or a reshaped private API
    _core = None


def incremental_available() -> bool:
    """True when the vendored HiGHS bindings expose the session surface and
    ``passModel`` loads a model by arrays."""
    return _core is not None and _probe(_core)


@functools.lru_cache(maxsize=1)  # one core is loaded; a test may swap in a stub
def _probe(core) -> bool:
    """Whether ``core`` (the loaded ``_core``, which keys the cache) has every
    name used here and ``passModel`` takes arrays: checked once per core,
    by loading a one-column model the way every solve loads one."""
    if not (
        all(hasattr(core, name) for name in ("_Highs", "MatrixFormat", "ObjSense", "HighsStatus"))
        and all(
            hasattr(core._Highs, name)
            for name in ("setOptionValue", "passModel", "clearModel", "run", "addRows",
                         "deleteRows", "getBasis", "getSolution")
        )
    ):
        return False
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    try:
        _load(highs, np.zeros(1), np.zeros(1), np.ones(1), None, np.zeros(0), np.zeros(0))
    except (TypeError, SolverError):  # no array overload, or one of another shape
        return False
    return True


def _require() -> None:
    """Raise unless the probe passes: there is no other way to solve."""
    if not incremental_available():
        from importlib import metadata  # 20 ms, paid only on the way to the error

        try:
            version = metadata.version("scipy")
        except metadata.PackageNotFoundError:
            version = "(not installed)"
        raise SolverError(
            f"scipy {version} lacks the vendored HiGHS bindings "
            "(scipy.optimize._highspy._core); repro needs scipy>=1.15"
        )


_INF = float("inf")
#: the CSR arrays of a model without rows
_NO_ROWS = (np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0))


def _load(highs, c, col_lower, col_upper, rows, row_lower, row_upper) -> None:
    """Load ``rows`` (a CSR record; ``None``: no rows) rowwise through
    ``passModel``'s array overload, every column continuous."""
    num_col = len(c)
    indptr, indices, data = _NO_ROWS if rows is None else (rows.indptr, rows.indices, rows.data)
    status = highs.passModel(
        num_col, len(row_lower), int(indptr[-1]),
        _core.MatrixFormat.kRowwise, _core.ObjSense.kMinimize, 0.0,
        np.asarray(c, dtype=float), np.asarray(col_lower, dtype=float),
        np.asarray(col_upper, dtype=float), row_lower, row_upper, indptr, indices, data,
        # an empty array loads no model at all: HiGHS then reports kModelEmpty
        np.zeros(num_col, dtype=np.int32),
    )
    if status == _core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")


def _run(highs) -> None:
    """Run a loaded model; anything short of a read-safe optimum raises.

    scipy's status table: infeasible and model-error are verdicts, so is
    unbounded; the rest (presolve's unbounded-or-infeasible included) is
    a plain :class:`SolverError`.
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
    rows,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One cold solve of exactly the model scipy's ``method="highs"`` loads.

    ``rows`` is ``A_ub`` stacked over ``A_eq`` as one CSR record, with row
    bounds ``(-inf, b_ub)`` / ``(b_eq, b_eq)`` — the assembly
    :func:`~repro.solver.form.solve_form`'s screen does — and only the
    options scipy sets are on, not the session's ``threads=1``, so ``x``
    and the row duals (stacked row order, the sign of scipy's
    ``marginals``) are scipy's to the bit.  Inputs are trusted: the
    caller screens shapes and non-finite values.

    Neither saving moves a bit.  The CSR loads rowwise, uncopied: HiGHS
    makes it colwise by the row-major sweep ``tocsc`` makes.  The
    instance is this thread's (a forked child inherits it as memory),
    and ``clearModel`` drops model, solution and basis, not options, so
    each run starts where a new instance would.
    """
    _require()
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
    _load(highs, c, col_lower, col_upper, rows, row_lower, row_upper)
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
        a_ub=None,
        b_ub: Optional[np.ndarray] = None,
    ):
        _require()
        rhs = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
        if (0 if a_ub is None else a_ub.shape[0]) != rhs.shape[0]:
            raise SolverError("row/rhs shape mismatch")
        self._highs = _core._Highs()
        # deterministic, quiet, single-threaded: same model -> same vertex
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("threads", 1)
        self._highs.setOptionValue("parallel", "off")
        _load(self._highs, c, col_lower, col_upper, a_ub, np.full(rhs.shape[0], -_INF), rhs)
        self.num_cols = len(c)
        self.num_rows = rhs.shape[0]

    # -- row edits ---------------------------------------------------------
    def add_rows(self, rows, rhs: np.ndarray) -> None:
        """Append ``rows @ x <= rhs`` rows (a CSR record), keeping the current basis."""
        rhs = np.asarray(rhs, dtype=float)
        count = rows.shape[0]
        if count == 0:
            return
        status = self._highs.addRows(
            count, np.full(count, -_INF), rhs, rows.nnz, rows.indptr, rows.indices, rows.data
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
