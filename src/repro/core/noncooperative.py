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

As in :mod:`repro.core.cooperative` the rows are distinct profiles with
multiplicities: (9c) reads ``W_g . z_g - m_g T == 0`` over a group's total
share ``z_g``, and ``T`` is the throughput of one unit of weight.

The standard form is assembled directly as sparse blocks (no per-row
Python loops) and memoised in the shared form cache, so scenario replays
that revisit the same instance skip assembly entirely.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from repro.core.allocation import Allocation
from repro.core.base import Allocator
from repro.core.cooperative import capacity_rows
from repro.core.instance import GroupedInstance, ProblemInstance
from repro.registry import register_scheduler
# solve_form is bound here by name: bench/layers.py wraps this module's binding
from repro.solver import FORM_CACHE, StandardForm, fingerprint_arrays, solve_form


def equal_throughput_rows(
    speedups: np.ndarray, multiplicity: np.ndarray
) -> sparse.csr_matrix:
    """The (9c) rows ``W_g . z_g - m_g T == 0``; ``T`` is the last column."""
    num_users, num_types = speedups.shape
    own_columns = np.arange(speedups.size).reshape(speedups.shape)
    return sparse.csr_matrix(
        (
            np.column_stack([speedups, -multiplicity]).ravel(),
            np.column_stack([own_columns, np.full(num_users, speedups.size)]).ravel(),
            np.arange(0, num_users * (num_types + 1) + 1, num_types + 1),
        ),
        shape=(num_users, speedups.size + 1),
    )


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

    def allocate(self, instance: ProblemInstance) -> Allocation:
        return self.allocate_with_state(instance)

    # kept as its own method: bench/layers.py times it as a span
    def allocation_from_values(
        self,
        instance: ProblemInstance,
        values: np.ndarray,
        groups: Optional[GroupedInstance] = None,
    ) -> Allocation:
        groups = instance.grouped() if groups is None else groups
        shares = np.clip(
            values[: groups.speedups.size].reshape(groups.speedups.shape), 0.0, None
        )
        return Allocation(groups.expand(shares), instance, allocator_name=self.name)

    def _form(self, instance: GroupedInstance) -> StandardForm:
        speedups = instance.speedups
        num_users, num_types = speedups.shape
        key = fingerprint_arrays(
            speedups, instance.multiplicity, instance.capacities,
            extra=("oef-noncoop",),
        )

        def build() -> StandardForm:
            num_shares = num_users * num_types
            # (9a) maximise T; StandardForm keeps c in minimisation
            # convention, negated back on report via ``maximise``
            c = np.zeros(num_shares + 1)
            c[num_shares] = -1.0
            return StandardForm(
                c=c,
                # (9b) capacity per GPU type, plus a zero column for T
                a_ub=capacity_rows(num_users, num_types, extra_columns=1),
                b_ub=np.asarray(instance.capacities, dtype=float),
                a_eq=equal_throughput_rows(speedups, instance.multiplicity),
                b_eq=np.zeros(num_users),
                bounds=[(0.0, None)] * (num_shares + 1),
                maximise=True,
            )

        return FORM_CACHE.get_or_build(key, build)

    # kept under its old name: bench/layers.py wraps it as the allocator's span
    def allocate_with_state(self, instance, weights=None) -> Allocation:
        """``weights`` (one per row, default 1) are the §4.2.3 priorities."""
        groups = instance.grouped(weights)
        if groups.count == 1:
            # one profile: its members split the whole cluster by weight
            matrix = groups.expand(instance.capacities.reshape(1, -1))
            return Allocation(matrix, instance, allocator_name=self.name)
        solution = solve_form(self._form(groups))
        return self.allocation_from_values(instance, solution.values, groups)
