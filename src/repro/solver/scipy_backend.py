"""LP backend on scipy's vendored HiGHS.

This is the default production backend: HiGHS handles the cooperative OEF
program (O(n^2) envy constraints) at the cluster sizes used in the paper's
Fig. 10(a) without breaking a sweat.  A cold solve loads the model
straight into HiGHS (:func:`repro.solver.incremental.solve_once`);
:func:`scipy.optimize.linprog` — the same model behind 1.5-1.9 ms of
per-call Python — is only the fallback for a scipy without the vendored
bindings (1.10-1.14), and both return the same bits.

Warm starting mirrors the simplex backend's contract
(:mod:`repro.solver.warm`): ``solve(form, warm_start=prior_state)``
re-verifies the prior certificate against the new numbers and returns the
verified point without calling HiGHS at all; anything unverifiable falls
back to a cold HiGHS solve.  A one-shot run keeps no basis, so the state
this backend *produces* is the KKT flavour — the optimal point plus the
row duals the solver already computed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import InfeasibleError, ModelError, SolverError, UnboundedError
from repro.solver.incremental import incremental_available, solve_once
from repro.solver.problem import StandardForm
from repro.solver.warm import (
    WarmStartState,
    form_signature,
    refresh_state,
    try_warm_solve,
)


def _screen(form: StandardForm) -> np.ndarray:
    """``(n, 2)`` column bounds, after the input screen ``linprog`` ran.

    HiGHS would take a NaN cost and hand back a point, so shapes and
    non-finite numbers are refused here, before either solve path.
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


class ScipyBackend:
    """Solve a :class:`StandardForm` with HiGHS; returns the variable vector."""

    def solve(
        self, form: StandardForm, warm_start: Optional[WarmStartState] = None
    ) -> np.ndarray:
        values, _state, _used = self.solve_with_state(form, warm_start)
        return values

    def solve_with_state(
        self, form: StandardForm, warm_start: Optional[WarmStartState] = None
    ) -> Tuple[np.ndarray, Optional[WarmStartState], bool]:
        """Solve and return ``(values, state, warm_start_used)``.

        The returned state carries the optimal point and the HiGHS row
        marginals (converted to the ``mu >= 0`` minimisation convention)
        so a structurally identical successor program can skip the solver
        when the certificate still verifies.
        """
        if warm_start is not None:
            values = try_warm_solve(form, warm_start)
            if values is not None:
                return values, refresh_state(warm_start, form, values), True
        bounds = _screen(form)
        if incremental_available():
            values, duals = solve_once(
                form.c, bounds[:, 0], bounds[:, 1],
                form.a_ub, form.b_ub, form.a_eq, form.b_eq,
            )
        else:
            values, duals = self._linprog(form)
        num_ub = 0 if form.a_ub is None else form.a_ub.shape[0]
        state = WarmStartState(
            signature=form_signature(form),
            primal=values.copy(),
            dual_ub=None if form.a_ub is None else -duals[:num_ub],
            dual_eq=None if form.a_eq is None else -duals[num_ub:],
        )
        return values, state, False

    @staticmethod
    def _linprog(form: StandardForm) -> Tuple[np.ndarray, np.ndarray]:
        """The same solve through ``linprog``: scipy without ``_highspy._core``."""
        result = linprog(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.bounds,
            method="highs",
        )
        if result.status == 2:
            raise InfeasibleError(f"linear program infeasible: {result.message}")
        if result.status == 3:
            raise UnboundedError(f"linear program unbounded: {result.message}")
        if not result.success:
            raise SolverError(f"scipy linprog failed (status={result.status}): {result.message}")
        duals = np.concatenate([result.ineqlin.marginals, result.eqlin.marginals])
        return np.asarray(result.x, dtype=float), duals
