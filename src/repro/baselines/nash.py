"""Max Nash welfare (CEEI) allocation — an independent envy-free point.

Not a baseline from the paper, but a powerful cross-check of its central
claim: maximising the *product* of tenant throughputs (Nash social
welfare) over divisible goods yields the competitive equilibrium from
equal incomes, which is provably envy-free and pareto-efficient.
Cooperative OEF maximises *total* throughput subject to envy-freeness, so
its total must weakly dominate Nash's — the test suite verifies exactly
that, which pins down "optimal efficiency under EF" against an external
reference point.

``max sum_l log(W_l . x_l)`` is concave but not linear; it is solved here
as an LP via an outer piecewise-linear approximation: for tangent points
``t_k`` (a geometric grid), ``log`` is replaced by the upper envelope of
its tangents::

    u_l <= log(t_k) + (W_l . x_l - t_k) / t_k      for all k

Maximising ``sum_l u_l`` under these cuts approximates the Nash optimum
to within the grid resolution (the approximation error of tangent
envelopes for ``log`` on a geometric grid with ratio r is <= log(r) -
1 + 1/r, far below the test tolerances for the default 48-point grid).
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.base import Allocator
from repro.core.cooperative import capacity_rows
from repro.core.instance import ProblemInstance
from repro.core.properties import optimal_efficiency_upper_bound
from repro.registry import register_scheduler
from repro.solver import CSR, StandardForm, solve_form


@register_scheduler(
    aliases=("nash",),
    family="baseline",
    description="Approximate max-Nash-welfare allocation via tangent cuts",
)
class NashWelfare(Allocator):
    """Approximate max-Nash-welfare allocation via tangent cuts."""

    name = "nash-welfare"

    def __init__(
        self,
        num_tangents: int = 48,
        refine_rounds: int = 6,
    ):
        if num_tangents < 2:
            raise ValueError("need at least two tangent points")
        self.num_tangents = num_tangents
        self.refine_rounds = refine_rounds

    def allocate(self, instance: ProblemInstance) -> Allocation:
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape

        if num_users == 1:
            matrix = instance.capacities.reshape(1, num_types).copy()
            return Allocation(matrix, instance, allocator_name=self.name)

        # initial tangent grid: from a fraction of the equal split up to
        # the unconstrained throughput bound (geometric, so relative error
        # is uniform across the range)
        fair = instance.equal_split_throughput()
        lower = max(1e-6, float(fair.min()) / 10.0)
        upper = max(lower * 2.0, optimal_efficiency_upper_bound(instance))
        tangents = [np.geomspace(lower, upper, self.num_tangents)] * num_users

        # adaptive refinement: the tangent envelope is flat between grid
        # points, so a one-shot LP can drift within a segment (breaking
        # the EF/symmetry guarantees of the exact Nash point).  Re-solving
        # with a fresh tangent at each user's current throughput tightens
        # the envelope exactly where the optimum sits.
        matrix = None
        previous = None
        for _ in range(max(1, self.refine_rounds)):
            matrix = self._solve_with_tangents(instance, tangents)
            throughputs = np.einsum("lj,lj->l", speedups, matrix)
            if previous is not None and np.allclose(
                throughputs, previous, rtol=1e-7, atol=1e-9
            ):
                break
            previous = throughputs
            tangents = [
                np.append(points, np.clip(throughputs[user], lower, upper))
                for user, points in enumerate(tangents)
            ]
        return Allocation(matrix, instance, allocator_name=self.name)

    def _solve_with_tangents(self, instance: ProblemInstance, tangents) -> np.ndarray:
        """max sum_l u_l  s.t.  tangent rows, then capacity rows.

        Columns are the row-major shares ``x`` followed by the free
        utilities ``u``.  The tangent row for user l at point t reads
        ``u_l - W_l . x_l / t <= log(t) - 1``, its coefficients
        ``-(w * (1 / t))``: the exact arithmetic of the expression build
        this form replaces.
        """
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape
        num_shares = speedups.size
        columns, data, rhs = [], [], []
        for user, points in enumerate(tangents):
            # per row: the user's share columns, then its utility column
            slopes = -(speedups[user] * (1.0 / points)[:, None])
            own = np.arange(user * num_types, (user + 1) * num_types)
            columns.append(np.tile(np.append(own, num_shares + user), len(points)))
            data.append(np.column_stack([slopes, np.ones(len(points))]).ravel())
            # log one point at a time, as the scalar build did
            rhs.append([float(np.log(point) - 1.0) for point in points])
        num_tangent_rows = sum(len(points) for points in tangents)
        tangent_rows = CSR(
            np.concatenate(data),
            np.concatenate(columns),
            np.arange(0, num_tangent_rows * (num_types + 1) + 1, num_types + 1),
            (num_tangent_rows, num_shares + num_users),
        )
        form = StandardForm(
            # -sum(u) for max sum(u); the share columns hold -0.0
            c=-np.concatenate([np.zeros(num_shares), np.ones(num_users)]),
            a_ub=CSR.vstack([tangent_rows, capacity_rows(num_users, num_types, num_users)]),
            b_ub=np.concatenate([np.concatenate(rhs), instance.capacities]).astype(float),
            a_eq=None,
            b_eq=None,
            bounds=[(0.0, None)] * num_shares + [(None, None)] * num_users,
            maximise=True,
        )
        values = solve_form(form).values[:num_shares]
        return np.clip(values.reshape(num_users, num_types), 0.0, None)
