"""Batched LP solving: many independent programs, one vectorized solve.

``Gateway.solve_batch`` fans independent small LPs out to worker threads,
but each solve still pays a full scipy round-trip per program.  Independent
LPs compose exactly: stacking them block-diagonally yields one larger LP
whose optimum restricts to each block's optimum.  One HiGHS call on the
composed system amortises model construction and presolve across the
whole batch — the win the paper's Fig. 10(a) regime (many small per-round
programs) cares about.

Correctness contract (the same one warm starting obeys): a batched path
must never change an answer.  A block with a *unique* optimum provably
receives the same point in the composed solve as it would solo; blocks
where uniqueness cannot be certified are re-solved solo.  Concretely, the
composed solve's per-block KKT certificate (point + row duals, which
HiGHS reports anyway) is verified through
:func:`repro.solver.warm.try_warm_solve` — exactly the verified-or-fall-
back-cold machinery — so every returned solution is either certified
equal to the solo answer or literally produced by a solo solve.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import SolverError
from repro.solver.problem import StandardForm, solve_form
from repro.solver.result import Solution, SolveStats
from repro.solver.warm import WarmStartState, form_signature, try_warm_solve


def solve_forms(
    forms: Sequence[StandardForm], backend: str = "auto"
) -> List[Solution]:
    """Solve independent standard forms in one composed pass.

    Returns one :class:`Solution` per form, in order, equal (certified,
    or by actually running solo) to what ``solve_form(form, backend)``
    would return.  Any failure of the composed solve — including one
    infeasible/unbounded member making the whole composition infeasible —
    falls back to solo solves, which also reproduces the serial path's
    exception behaviour.
    """
    forms = list(forms)
    if not forms:
        return []
    if len(forms) == 1 or backend == "simplex":
        # nothing to amortise / the self-contained backend gains nothing
        # from composition
        return [solve_form(form, backend=backend) for form in forms]
    try:
        return _solve_block_diagonal(forms, backend)
    except SolverError:
        return [solve_form(form, backend=backend) for form in forms]


def _stack(blocks, widths):
    """Block-diagonal composition of per-form row systems (None-aware)."""
    total_rows = sum(0 if block is None else block.shape[0] for block in blocks)
    if total_rows == 0:
        return None
    pieces = []
    for block, width in zip(blocks, widths):
        if block is None:
            pieces.append(sparse.csr_matrix((0, width)))
        elif sparse.issparse(block):
            pieces.append(block.tocsr())
        else:
            pieces.append(sparse.csr_matrix(np.atleast_2d(block)))
    return sparse.block_diag(pieces, format="csr")


def _solve_block_diagonal(
    forms: List[StandardForm], backend: str
) -> List[Solution]:
    widths = [form.num_variables for form in forms]
    var_offsets = np.concatenate([[0], np.cumsum(widths)])
    composed = StandardForm(
        c=np.concatenate([form.c for form in forms]),
        a_ub=_stack([form.a_ub for form in forms], widths),
        b_ub=_concat([form.b_ub for form in forms]),
        a_eq=_stack([form.a_eq for form in forms], widths),
        b_eq=_concat([form.b_eq for form in forms]),
        bounds=[bound for form in forms for bound in form.bounds],
        maximise=False,  # every form.c is already in minimisation convention
        offset=0.0,
    )
    start = time.perf_counter()
    composed_solution = solve_form(composed, backend=backend)
    elapsed = time.perf_counter() - start
    state = composed_solution.warm_state

    ub_offsets = _row_offsets([form.a_ub for form in forms])
    eq_offsets = _row_offsets([form.a_eq for form in forms])
    solutions: List[Solution] = []
    for index, form in enumerate(forms):
        values = composed_solution.values[
            var_offsets[index] : var_offsets[index + 1]
        ]
        block_state = _block_state(form, values, state, index, ub_offsets, eq_offsets)
        verified = (
            None if block_state is None else try_warm_solve(form, block_state)
        )
        if verified is None:
            # uniqueness not certifiable from the composed certificate:
            # this block's serial answer could differ, so produce it solo
            solutions.append(solve_form(form, backend=backend))
            continue
        raw = float(form.c @ verified)
        rows = 0 if form.a_ub is None else int(form.a_ub.shape[0])
        rows += 0 if form.a_eq is None else int(form.a_eq.shape[0])
        solutions.append(
            Solution(
                values=verified,
                objective=(-raw if form.maximise else raw) + form.offset,
                stats=SolveStats(
                    backend=composed_solution.stats.backend,
                    solve_seconds=elapsed / len(forms),
                    num_variables=form.num_variables,
                    num_constraints=rows,
                    warm_start_used=False,
                ),
                warm_state=block_state,
            )
        )
    return solutions


def _concat(arrays) -> Optional[np.ndarray]:
    present = [np.asarray(array, dtype=float) for array in arrays if array is not None]
    if not present:
        return None
    return np.concatenate(present)


def _row_offsets(blocks) -> np.ndarray:
    counts = [0 if block is None else int(block.shape[0]) for block in blocks]
    return np.concatenate([[0], np.cumsum(counts)])


def _block_state(
    form: StandardForm,
    values: np.ndarray,
    state: Optional[WarmStartState],
    index: int,
    ub_offsets: np.ndarray,
    eq_offsets: np.ndarray,
) -> Optional[WarmStartState]:
    """This block's KKT certificate sliced out of the composed solve's."""
    if state is None:
        return None
    dual_ub = None
    if form.a_ub is not None:
        if state.dual_ub is None:
            return None
        dual_ub = state.dual_ub[ub_offsets[index] : ub_offsets[index + 1]]
    dual_eq = None
    if form.a_eq is not None:
        if state.dual_eq is None:
            return None
        dual_eq = state.dual_eq[eq_offsets[index] : eq_offsets[index + 1]]
    return WarmStartState(
        signature=form_signature(form),
        primal=np.asarray(values, dtype=float).copy(),
        dual_ub=dual_ub,
        dual_eq=dual_eq,
    )


__all__ = ["solve_forms"]
