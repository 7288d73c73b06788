"""Deviation-accumulating rounding of fractional shares (§4.3).

The fair-share evaluator yields fractional GPU shares; a physical round
gives each job whole GPUs.  The placer therefore tracks, per tenant and
GPU type, the cumulative deviation ``dev(t)`` between the ideal fractional
share and the integral share actually granted:

    real(t) = round(ideal(t) + dev(t))
    dev(t + 1) = dev(t) + ideal(t) - real(t)

so the time-average of the granted share converges to the ideal share.
Per GPU type, rounding is capacity-aware (largest-remainder): totals never
exceed the device count.  The §4.3 refinement also zeroes a tenant's grant
when it cannot fit the tenant's smallest job (``min_k demand_k``) — the
deviation then builds up until the tenant is guaranteed a runnable grant,
which is what shrinks starvation and JCT in Fig. 9.

Every sort that breaks a tie here is stable, so of two equal remainders
(or equal grants being shaved) the tenant listed first wins.  numpy's default sort kind
breaks such ties differently on each CPU's SIMD kernel, and a tie decides
which tenant gets a device.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError

REMAINDER_ATOL = 1e-12  #: a smaller remainder is float residue, not a request
DEFICIT_ATOL = 1e-12  #: this close to its target, a tenant is not under-served
TARGET_ATOL = 1e-12  #: a smaller target on a type is residue, not demand for it


def _shave(column: np.ndarray, capacity: int) -> None:
    """Cut an integer column down to ``capacity`` in place, largest first."""
    overflow = column.sum() - capacity
    if overflow > 0:
        for index in np.argsort(-column, kind="stable"):
            if overflow <= 0:
                break
            take = min(column[index], overflow)
            column[index] -= take
            overflow -= take


@dataclass(eq=False)
class RoundingResult:
    """One round's integral grants: ``matrix`` holds one int row per tenant
    in ``tenants`` order, which the placer reads through :meth:`rows`;
    ``grants`` (tenant -> row) is derived on first read."""

    tenants: List[str]
    matrix: np.ndarray  # tenants x types, ints
    zeroed_tenants: List[str]

    @cached_property
    def grants(self) -> Dict[str, np.ndarray]:
        return dict(zip(self.tenants, self.matrix))

    def rows(self) -> Tuple[List[str], List[List[int]]]:
        """The tenants in order and each one's grant as Python ints."""
        return self.tenants, self.matrix.tolist()


@dataclass(frozen=True)
class RoundingQuestion:
    """One round's input to :meth:`DeviationRounder.round_shares`, prepared once.

    :meth:`DeviationRounder.prepare` builds it from copies of its inputs,
    so a caller editing its dicts afterwards does not change the question.
    A caller whose shares, capacities and min demands hold for several
    rounds (the simulator, for an active-set epoch) prepares once and
    passes the question every round.
    """

    tenants: List[str]
    ideal: np.ndarray  # tenants x types, read-only
    capacities: np.ndarray  # devices per type
    whole: np.ndarray  # ``rint(capacities)`` as ints
    demands: Optional[np.ndarray]  # min demand per tenant (0: none); None: no rule
    rows: np.ndarray  # each tenant's deviation row under ``layout``
    layout: Optional[object]  # the rounder's row layout when prepared


class DeviationRounder:
    """Stateful rounder: one instance per simulation, fed every round.

    The deviations live in one (rows × GPU types) matrix with a stable row
    per tenant; a forgotten tenant's row goes to the next new tenant.  A
    tenant starts from zero deviation when first seen, and every tenant
    does after a change in the number of GPU types.
    """

    def __init__(self) -> None:
        self._rows: Dict[str, int] = {}
        self._spare: List[int] = []  # zeroed rows no tenant holds
        self._matrix = np.zeros((0, 0))
        # replaced whenever a row changes hands, which stales a prepared
        # question's rows
        self._layout = object()

    def deviation(self, tenant: str) -> np.ndarray:
        row = self._rows.get(tenant)
        return np.zeros(0) if row is None else self._matrix[row].copy()

    def forget(self, tenant: str) -> None:
        """Drop state for a departed tenant."""
        row = self._rows.pop(tenant, None)
        if row is not None:
            self._matrix[row] = 0.0
            self._spare.append(row)
            self._layout = object()

    def _row_index(self, tenants: List[str], num_types: int) -> np.ndarray:
        """Each tenant's row of the deviation matrix; a new tenant's is zeros."""
        if self._matrix.shape[1] != num_types:
            self._rows.clear()
            self._spare.clear()
            self._matrix = np.zeros((0, num_types))
            self._layout = object()
        index = list(map(self._rows.get, tenants))
        if None in index:
            for position, tenant in enumerate(tenants):
                if index[position] is None:
                    if not self._spare:  # double the matrix
                        size = len(self._matrix)
                        self._matrix = np.vstack(
                            [self._matrix, np.zeros((size + 1, num_types))]
                        )
                        self._spare = list(range(2 * size, size - 1, -1))
                    index[position] = self._rows[tenant] = self._spare.pop()
        return np.array(index)

    def prepare(
        self,
        ideal: Dict[str, np.ndarray],
        capacities: Sequence[float] | np.ndarray,
        min_demands: Dict[str, int] | None = None,
    ) -> RoundingQuestion:
        """Check and pack one round's question for :meth:`round_shares`.

        A tenant new to the rounder gets its row here.

        Parameters
        ----------
        ideal:
            tenant -> fractional share vector (one entry per GPU type).
        capacities:
            device count per GPU type; granted totals never exceed it.
        min_demands:
            tenant -> smallest worker count among its jobs; grants smaller
            than this are zeroed (the tenant cannot run anything with them),
            the deviation absorbs the difference, and the freed GPUs go to
            other tenants (work conservation), largest deviation first.
        """
        capacities = np.array(capacities, dtype=float)
        num_types = capacities.shape[0]
        tenants = list(ideal)
        if not tenants:
            empty = np.zeros(0, dtype=int)
            return RoundingQuestion(
                [], np.zeros((0, num_types)), capacities, empty, None, empty, None
            )
        try:
            ideal_matrix = np.array(list(ideal.values()), dtype=float)
        except ValueError:  # ragged vectors
            ideal_matrix = None
        if ideal_matrix is None or ideal_matrix.shape != (len(tenants), num_types):
            for tenant, vector in ideal.items():
                shape = np.asarray(vector, dtype=float).shape
                if shape != (num_types,):
                    raise ValidationError(
                        f"tenant {tenant!r}: share vector shape {shape} "
                        f"does not match {num_types} GPU types"
                    )
        ideal_matrix.setflags(write=False)
        demands = None
        if min_demands:
            demands = np.array(
                [int(min_demands.get(tenant, 0)) for tenant in tenants], dtype=int
            )
            if demands.max() <= 1:  # no whole grant is above 0 and below 1
                demands = None
        rows = self._row_index(tenants, num_types)
        whole = np.rint(capacities).astype(int)
        return RoundingQuestion(
            tenants, ideal_matrix, capacities, whole, demands, rows, self._layout
        )

    def round_shares(self, question: RoundingQuestion) -> RoundingResult:
        """Convert a prepared question's fractional shares into per-type
        integer grants (:meth:`prepare` explains the inputs)."""
        tenants = question.tenants
        if not tenants:
            return RoundingResult([], np.zeros(question.ideal.shape, dtype=int), [])
        whole = question.whole
        index = question.rows
        if question.layout is not self._layout:  # a row changed hands since
            index = self._row_index(tenants, whole.shape[0])
        wanted = question.ideal + self._matrix[index]
        target = np.maximum(wanted, 0.0)  # clip at 0

        # largest remainder for all types at once: per column, the ``remaining``
        # largest remainders (``_largest_remainder``'s order) get one more
        # device; ``place`` is each row's position in its column's order
        floors = np.floor(target)
        real = floors.astype(int)
        remaining = whole - real.sum(axis=0)
        remainders = target - floors
        order = np.argsort(-remainders, axis=0, kind="stable")
        place = np.argsort(order, axis=0)
        real += (place < remaining) & (remainders > REMAINDER_ATOL)
        # an oversubscribed type is shaved by the per-column routine
        for type_index, left in enumerate(remaining.tolist()):
            if left < 0:
                real[:, type_index] = self._largest_remainder(
                    target[:, type_index], int(whole[type_index])
                )

        zeroed: List[str] = []
        demands = question.demands
        if demands is not None:
            granted = real.sum(axis=1)
            short = (granted > 0) & (granted < demands)
            if short.any():
                real[short] = 0
                zeroed = [tenants[row] for row in np.flatnonzero(short).tolist()]
                self._redistribute(real, target, question.capacities, demands)

        # dev(t + 1) = dev(t) + ideal(t) - real(t), all tenants at once
        self._matrix[index] = wanted - real
        return RoundingResult(tenants, real, zeroed)

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _largest_remainder(target: np.ndarray, capacity: int) -> np.ndarray:
        """Round a column to integers summing to at most ``capacity``."""
        floors = np.floor(target).astype(int)
        # accumulated deviations can oversubscribe the capacity
        _shave(floors, capacity)
        remaining = capacity - floors.sum()
        if remaining > 0:
            remainders = target - np.floor(target)
            order = np.argsort(-remainders, kind="stable")
            for index in order:
                if remaining <= 0:
                    break
                if remainders[index] <= REMAINDER_ATOL:
                    break  # don't grant devices nobody asked for
                floors[index] += 1
                remaining -= 1
        return floors

    def _redistribute(
        self,
        real: np.ndarray,
        target: np.ndarray,
        capacities: np.ndarray,
        demands: np.ndarray,
    ) -> None:
        """Give devices freed by the zeroing rule to runnable tenants."""
        free = np.asarray(capacities, dtype=int) - real.sum(axis=0)
        # candidates: tenants already holding a runnable grant
        runnable_rows = np.flatnonzero(
            real.sum(axis=1) >= np.maximum(demands, 1)
        ).tolist()
        if not runnable_rows:
            return
        for type_index in range(real.shape[1]):
            while free[type_index] > 0:
                # most under-served runnable tenant on this type; when no
                # tenant is below target, still hand the device to the
                # largest-target tenant (work conservation — the deviation
                # update claws the excess back in later rounds)
                deficits = [
                    (target[row, type_index] - real[row, type_index], row)
                    for row in runnable_rows
                ]
                deficit, row = max(deficits)
                if deficit <= DEFICIT_ATOL:
                    candidates = [
                        (target[r, type_index], r)
                        for r in runnable_rows
                        if target[r, type_index] > TARGET_ATOL
                    ]
                    if not candidates:
                        break
                    _, row = max(candidates)
                real[row, type_index] += 1
                free[type_index] -= 1
