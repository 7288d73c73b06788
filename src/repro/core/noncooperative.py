"""Non-cooperative OEF: the strategy-proof allocator (§4.2.1, Eq. 9).

The linear program:

    max   sum_l sum_j w_l^j x_l^j                        (9a)
    s.t.  sum_l x_l^j <= m_j                  for all j  (9b)
          W_l . x_l == W_i . x_i          for all i, l   (9c)

The equal-throughput constraints (9c) make every tenant's normalised
throughput identical; the paper proves (Theorem 5.4) that this equality is
what yields strategy-proofness: a tenant inflating its reported speedups
cannot raise its *true* throughput.  We model (9c) with one auxiliary free
variable ``T`` and constraints ``W_l . x_l - T == 0``, then maximise ``T``
(the objective 9a equals ``n * T`` under the equality constraints).

The standard form is assembled directly as sparse blocks (no per-row
Python loops) and memoised in the shared form cache, so scenario replays
that revisit the same instance skip assembly entirely.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.allocation import Allocation
from repro.core.base import Allocator
from repro.core.instance import ProblemInstance
from repro.registry import register_scheduler
from repro.solver import FORM_CACHE, StandardForm, fingerprint_arrays, solve_form


@register_scheduler(
    aliases=("noncooperative", "noncoop"),
    family="oef",
    description="Strategy-proof OEF (Eq. 9) for non-cooperative environments",
    pe_within="equal_throughput",
    efficiency_constraint="equal_throughput",
    supports_weights=True,
    supports_job_level=True,
)
class NonCooperativeOEF(Allocator):
    """Strategy-proof OEF for non-cooperative (competitive) environments."""

    name = "oef-noncoop"

    def __init__(self, backend: str = "auto"):
        self.backend = backend

    def allocate(self, instance: ProblemInstance) -> Allocation:
        return self.allocate_with_state(instance)[0]

    def compile_form(self, instance: ProblemInstance):
        """The Eq. 9 standard form, or ``None`` when no LP is needed.

        Batch protocol hook: ``solve_forms`` composes the forms of many
        requests into one solve; :meth:`allocation_from_values` converts
        each block's optimum back into an allocation.
        """
        if instance.num_users == 1:
            return None
        return self._form(instance)

    def allocation_from_values(
        self, instance: ProblemInstance, values: np.ndarray
    ) -> Allocation:
        num_users, num_types = instance.speedups.values.shape
        matrix = np.clip(
            values[: num_users * num_types].reshape(num_users, num_types), 0.0, None
        )
        return Allocation(matrix, instance, allocator_name=self.name)

    def _form(self, instance: ProblemInstance) -> StandardForm:
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape
        key = fingerprint_arrays(
            speedups, instance.capacities, extra=("oef-noncoop",)
        )

        def build() -> StandardForm:
            num_shares = num_users * num_types
            # (9b) capacity per GPU type, plus a zero column for T
            capacity_rows = sparse.csr_matrix(
                (
                    np.ones(num_shares),
                    (
                        np.tile(np.arange(num_types), num_users),
                        np.arange(num_shares),
                    ),
                ),
                shape=(num_types, num_shares + 1),
            )
            # (9c) equal normalised throughput: W_l . x_l - T == 0
            equal_rows = sparse.csr_matrix(
                (
                    np.concatenate([speedups.ravel(), -np.ones(num_users)]),
                    (
                        np.concatenate(
                            [
                                np.repeat(np.arange(num_users), num_types),
                                np.arange(num_users),
                            ]
                        ),
                        np.concatenate(
                            [
                                np.arange(num_shares),
                                np.full(num_users, num_shares),
                            ]
                        ),
                    ),
                ),
                shape=(num_users, num_shares + 1),
            )
            # (9a) maximise T; StandardForm keeps c in minimisation
            # convention, negated back on report via ``maximise``
            c = np.zeros(num_shares + 1)
            c[num_shares] = -1.0
            return StandardForm(
                c=c,
                a_ub=capacity_rows,
                b_ub=np.asarray(instance.capacities, dtype=float),
                a_eq=equal_rows,
                b_eq=np.zeros(num_users),
                bounds=[(0.0, None)] * (num_shares + 1),
                maximise=True,
            )

        return FORM_CACHE.get_or_build(key, build)

    def allocate_with_state(self, instance, warm_start=None):
        if instance.num_users == 1:
            # a lone tenant simply receives the whole cluster
            num_types = instance.speedups.values.shape[1]
            matrix = instance.capacities.reshape(1, num_types).copy()
            return Allocation(matrix, instance, allocator_name=self.name), None, False

        solution = solve_form(
            self._form(instance), backend=self.backend, warm_start=warm_start
        )
        allocation = self.allocation_from_values(instance, solution.values)
        return allocation, solution.warm_state, solution.stats.warm_start_used
