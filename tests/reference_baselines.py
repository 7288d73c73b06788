"""The parent's Gavel and Nash bodies on the LP DSL, kept as form oracles.

``repro.baselines.gavel`` and ``repro.baselines.nash`` build their
standard forms directly.  The classes here are the bodies they replaced,
copied without edits apart from the class header and the solve call,
which also records each compiled form, so the tests can hold every
hand-written form byte-equal to the DSL compile (``tests/baselines/
test_forms_oracle.py``).

Do not "tidy" the copied bodies: they are only worth anything while they
stay the old code.
"""

from __future__ import annotations

import numpy as np

from reference_lp import LinearProgram, dot, lin_sum
from repro.core.allocation import Allocation
from repro.core.instance import ProblemInstance
from repro.core.properties import optimal_efficiency_upper_bound


class _Recording:
    """Collects the compiled form of every program the copy solves."""

    def _solve(self, lp: LinearProgram):
        self.forms.append(lp.compile())
        return lp.solve()


class ParentGavel(_Recording):
    name = "gavel"

    def __init__(self, dense: bool = True, slack: float = 0.02):
        self.dense = dense
        self.slack = slack
        self.forms = []

    def allocate(self, instance: ProblemInstance) -> Allocation:
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape
        fair_share = instance.equal_split_throughput()

        if num_users == 1:
            matrix = instance.capacities.reshape(1, num_types).copy()
            return Allocation(matrix, instance, allocator_name=self.name)

        ratio = self._max_min_ratio(instance, fair_share)
        matrix = self._work_conserving_at_ratio(instance, fair_share, ratio)
        return Allocation(matrix, instance, allocator_name=self.name)

    # -- phase 1 ---------------------------------------------------------------
    def _max_min_ratio(self, instance: ProblemInstance, fair_share: np.ndarray) -> float:
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape
        lp = LinearProgram("gavel-phase1")
        shares = lp.new_variable_array("x", (num_users, num_types), lower=0.0)
        ratio = lp.new_variable("c", lower=0.0)
        for type_index in range(num_types):
            lp.add_constraint(
                lin_sum(shares[:, type_index]) <= float(instance.capacities[type_index])
            )
        for user in range(num_users):
            lp.add_constraint(
                dot(speedups[user], shares[user]) - ratio * float(fair_share[user]) >= 0.0
            )
        lp.set_objective(ratio.to_expr(), sense="max")
        solution = self._solve(lp)
        return float(solution.value(ratio))

    # -- phase 2 ---------------------------------------------------------------
    def _work_conserving_at_ratio(
        self, instance: ProblemInstance, fair_share: np.ndarray, ratio: float
    ) -> np.ndarray:
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape
        lp = LinearProgram("gavel-phase2")
        shares = lp.new_variable_array("x", (num_users, num_types), lower=0.0)
        for type_index in range(num_types):
            lp.add_constraint(
                lin_sum(shares[:, type_index]) <= float(instance.capacities[type_index])
            )
        # every tenant sits within a band of the common max-min ratio; the
        # dense variant may dip `slack` below the optimum (interior-point
        # behaviour), the vertex variant is pinned tight
        lower_band = self.slack if self.dense else 1e-6
        for user in range(num_users):
            target = ratio * float(fair_share[user])
            lp.add_constraint(
                dot(speedups[user], shares[user]) >= target * (1 - lower_band)
            )
            lp.add_constraint(dot(speedups[user], shares[user]) <= target * (1 + 1e-6))
        if self.dense:
            # spread bonus: y_lj <= min(x_lj, m_j / n) and maximise sum(y),
            # which emulates the dense mixes interior-point solvers return
            spread = lp.new_variable_array("y", (num_users, num_types), lower=0.0)
            for user in range(num_users):
                for type_index in range(num_types):
                    cap = float(instance.capacities[type_index]) / num_users
                    lp.add_constraint(
                        spread[user, type_index].to_expr()
                        - shares[user, type_index].to_expr()
                        <= 0.0
                    )
                    lp.add_constraint(spread[user, type_index] <= cap)
            objective = lin_sum(spread.ravel()) + 1e-3 * lin_sum(shares.ravel())
            lp.set_objective(objective, sense="max")
        else:
            lp.set_objective(lin_sum(shares.ravel()), sense="max")
        solution = self._solve(lp)
        return np.clip(solution.value(shares), 0.0, None)


class ParentNashWelfare(_Recording):
    name = "nash-welfare"

    def __init__(self, num_tangents: int = 48, refine_rounds: int = 6):
        self.num_tangents = num_tangents
        self.refine_rounds = refine_rounds
        self.forms = []

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
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape

        lp = LinearProgram("nash-welfare")
        shares = lp.new_variable_array("x", (num_users, num_types), lower=0.0)
        utilities = lp.new_variable_array("u", num_users, lower=None)
        flat = list(shares.ravel())

        for type_index in range(num_types):
            row = np.zeros((1, num_users * num_types))
            row[0, type_index::num_types] = 1.0
            lp.add_matrix_constraints(
                row, flat, "<=", float(instance.capacities[type_index])
            )
        for user in range(num_users):
            throughput = dot(speedups[user], shares[user])
            for point in tangents[user]:
                # u <= log(t) + (T - t)/t
                lp.add_constraint(
                    utilities[user] - throughput / float(point)
                    <= float(np.log(point) - 1.0)
                )
        objective = utilities[0].to_expr()
        for user in range(1, num_users):
            objective = objective + utilities[user]
        lp.set_objective(objective, sense="max")
        solution = self._solve(lp)
        return np.clip(solution.value(shares), 0.0, None)
