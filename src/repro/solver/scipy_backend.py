"""LP backend built on :func:`scipy.optimize.linprog` (HiGHS).

This is the default production backend: HiGHS handles the cooperative OEF
program (O(n^2) envy constraints) at the cluster sizes used in the paper's
Fig. 10(a) without breaking a sweat.

Warm starting mirrors the simplex backend's contract
(:mod:`repro.solver.warm`): ``solve(form, warm_start=prior_state)``
re-verifies the prior certificate against the new numbers and returns the
verified point without calling HiGHS at all; anything unverifiable falls
back to a cold HiGHS solve.  HiGHS itself exposes no basis hand-off
through scipy, so the state this backend *produces* is the KKT flavour —
the optimal point plus the row marginals the solver already computed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import InfeasibleError, SolverError, UnboundedError
from repro.solver.problem import StandardForm
from repro.solver.warm import (
    WarmStartState,
    form_signature,
    refresh_state,
    try_warm_solve,
)


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
        result = linprog(
            c=form.c,
            A_ub=form.a_ub,
            b_ub=form.b_ub,
            A_eq=form.a_eq,
            b_eq=form.b_eq,
            bounds=form.bounds,
            method="highs",
        )
        if result.status == 2:
            raise InfeasibleError(f"linear program infeasible: {result.message}")
        if result.status == 3:
            raise UnboundedError(f"linear program unbounded: {result.message}")
        if not result.success:
            raise SolverError(f"scipy linprog failed (status={result.status}): {result.message}")
        values = np.asarray(result.x, dtype=float)
        state = self._state_from_result(form, values, result)
        return values, state, False

    @staticmethod
    def _state_from_result(
        form: StandardForm, values: np.ndarray, result
    ) -> Optional[WarmStartState]:
        """KKT-flavour state from a HiGHS result (None if marginals absent)."""
        try:
            dual_ub = (
                None
                if form.a_ub is None
                else -np.asarray(result.ineqlin.marginals, dtype=float)
            )
            dual_eq = (
                None
                if form.a_eq is None
                else -np.asarray(result.eqlin.marginals, dtype=float)
            )
        except AttributeError:  # pragma: no cover - HiGHS ships them
            return None
        return WarmStartState(
            signature=form_signature(form),
            primal=values.copy(),
            dual_ub=dual_ub,
            dual_eq=dual_eq,
        )
