"""Gavel's heterogeneity-aware max-min policy (§2.4).

Gavel (Narayanan et al., OSDI '20) maximises the minimum *normalised*
throughput ratio across tenants, where each tenant's reference point is
its throughput under a 1/n equal partition:

    ratio_l = (W_l . x_l) / (W_l . m / n)

Phase 1 maximises ``min_l ratio_l`` as an LP.  The policy equalises the
ratio across tenants (the paper's Eq. (3) example: ratios 1.09/1.08/1.08),
so phase 2 pins every tenant's ratio to the phase-1 optimum ``c*`` and,
among those allocations, maximises total GPU usage (work conservation).
Pinning to the common ratio is what makes Gavel sharing-incentive
(``c* >= 1`` always, since the equal split itself achieves ratio 1) but —
as §2.4 shows — pareto-inefficient and manipulable.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.allocation import Allocation
from repro.core.base import Allocator
from repro.core.cooperative import capacity_rows
from repro.core.instance import ProblemInstance
from repro.core.properties import floor_rows
from repro.registry import register_scheduler
from repro.solver import StandardForm, solve_form


def _le_rhs(values) -> np.ndarray:
    """A ``<=`` row's right-hand side ``r``, a zero written as ``-0.0``.

    ``-(0.0 - r)`` and ``0.0 - r`` (for a ``>=`` row negated into the
    ``<=`` system) are the exact arithmetic of the expression compile
    these forms replace, which moved ``r`` into the row and back.
    """
    return -(0.0 - np.asarray(values, dtype=float))


@register_scheduler(
    family="baseline",
    description="Gavel's two-phase max-min-ratio LP baseline",
)
class Gavel(Allocator):
    """Two-phase max-min-ratio LP baseline.

    ``dense=True`` (default) emulates the interior-point solutions of the
    paper's artifact (cvxpy + ECOS): ratios are allowed to sit a small
    ``slack`` below the exact max-min optimum (the paper's Eq. (3) solution
    has ratios ~1.08 against an optimum of ~1.10 and leaves 1% of GPU2
    unused), and among those near-optimal points the allocation is spread
    across GPU types (each tenant holding up to its proportional
    ``m_j / n`` of a type earns a bonus).  This density is what causes
    Gavel's cross-type placements and its pareto-inefficiency in §2.4.
    ``dense=False`` returns a work-conserving simplex vertex instead —
    exactly ratio-pinned, and typically pareto-efficient.

    Both phases are built as standard forms directly: variables are the
    row-major shares ``x`` followed by the phase's extra columns, and rows
    come in the order ``<=`` rows first, then the ``>=`` rows negated.
    """

    name = "gavel"

    def __init__(self, dense: bool = True, slack: float = 0.02):
        self.dense = dense
        self.slack = slack

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
        """max c  s.t.  capacity rows,  W_l . x_l - c f_l >= 0 per user."""
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape
        ratio = speedups.size  # the column of c, after the shares
        ratio_rows = sparse.hstack(
            [floor_rows(speedups), sparse.csr_matrix(fair_share[:, None])], format="csr"
        )
        form = StandardForm(
            # -c for max c; the unused share columns hold -0.0
            c=-np.eye(1, ratio + 1, ratio).ravel(),
            a_ub=sparse.vstack(
                [capacity_rows(num_users, num_types, extra_columns=1), ratio_rows],
                format="csr",
            ),
            b_ub=np.concatenate([_le_rhs(instance.capacities), np.zeros(num_users)]),
            a_eq=None,
            b_eq=None,
            bounds=[(0.0, None)] * (ratio + 1),
            maximise=True,
        )
        return float(solve_form(form).values[ratio])

    # -- phase 2 ---------------------------------------------------------------
    def _work_conserving_at_ratio(
        self, instance: ProblemInstance, fair_share: np.ndarray, ratio: float
    ) -> np.ndarray:
        """Every tenant within a band of the common ratio; max usage."""
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape
        num_shares = speedups.size
        capacities = np.asarray(instance.capacities, dtype=float)
        # every tenant sits within a band of the common max-min ratio; the
        # dense variant may dip `slack` below the optimum (interior-point
        # behaviour), the vertex variant is pinned tight
        lower_band = self.slack if self.dense else 1e-6
        target = ratio * fair_share
        extra = num_shares if self.dense else 0  # the spread columns y
        # <= rows: capacity, each tenant's upper band, then (dense) the
        # spread rows; the lower bands follow as negated >= rows
        blocks = [capacity_rows(num_users, num_types, extra), -floor_rows(speedups, extra)]
        rhs = [_le_rhs(capacities), _le_rhs(target * (1 + 1e-6))]
        if self.dense:
            # spread bonus: y_lj <= min(x_lj, m_j / n) and maximise sum(y),
            # which emulates the dense mixes interior-point solvers return;
            # per cell the rows y - x <= 0 and y <= m_j / n, interleaved
            cells = np.arange(num_shares)
            blocks.append(
                sparse.csr_matrix(
                    (
                        np.tile([-1.0, 1.0, 1.0], num_shares),
                        np.column_stack([cells, cells + extra, cells + extra]).ravel(),
                        np.append(np.column_stack([3 * cells, 3 * cells + 2]).ravel(),
                                  3 * num_shares),
                    ),
                    shape=(2 * num_shares, 2 * num_shares),
                )
            )
            bands = np.empty(2 * num_shares)
            bands[0::2] = -0.0
            bands[1::2] = _le_rhs(np.tile(capacities / num_users, num_users))
            rhs.append(bands)
            # sum(y) + 1e-3 sum(x), negated for the minimisation convention
            c = -np.concatenate([np.full(num_shares, 1e-3), np.ones(num_shares)])
        else:
            c = -np.ones(num_shares)
        blocks.append(floor_rows(speedups, extra))
        rhs.append(0.0 - target * (1 - lower_band))
        form = StandardForm(
            c=c,
            a_ub=sparse.vstack(blocks, format="csr"),
            b_ub=np.concatenate(rhs),
            a_eq=None,
            b_eq=None,
            bounds=[(0.0, None)] * (num_shares + extra),
            maximise=True,
        )
        values = solve_form(form).values[:num_shares]
        return np.clip(values.reshape(num_users, num_types), 0.0, None)
