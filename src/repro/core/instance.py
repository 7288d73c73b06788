"""A scheduling problem instance: speedups plus cluster capacities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.speedup import SpeedupMatrix
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class GroupedInstance:
    """An instance folded to one row per byte-distinct speedup profile.

    §4.2.3 *proves* the weighted guarantees by replicating a weight-``w``
    tenant into ``w`` identical users.  Replicas are interchangeable and
    Eq. 9/10 are linear, so averaging an optimum inside a group of equal
    rows stays optimal: the allocators solve for one total share ``z_g``
    per group with multiplicity ``m_g`` (its members' summed weight, any
    positive real) and member ``l`` receives ``(w_l / m_g) . z_g``.
    """

    speedups: np.ndarray  # (groups, gpu_types), first-occurrence order
    multiplicity: np.ndarray  # (groups,)
    capacities: np.ndarray
    member_group: np.ndarray  # (members,) group of each instance row
    member_fraction: np.ndarray  # (members,) w_l / m_g

    @property
    def count(self) -> int:
        return self.speedups.shape[0]

    def expand(self, group_shares: np.ndarray) -> np.ndarray:
        """Group totals ``z`` -> one share row per member."""
        return group_shares[self.member_group] * self.member_fraction[:, None]

    @classmethod
    def fold(cls, values, weights, capacities, rows=None) -> "GroupedInstance":
        """Fold byte-identical rows of ``values`` (no tolerance), first seen
        first, weighted by ``weights`` (positive and finite: the caller
        checked them); ``rows`` are the rows' bytes, when the caller has them."""
        if rows is None:  # sliced row by row: one tobytes() for the matrix
            flat, width = values.tobytes(), values.shape[1] * values.itemsize
            rows = [flat[at:at + width] for at in range(0, len(flat), width)]
        first_seen: dict = {}
        member_group = np.array(
            [first_seen.setdefault(row, len(first_seen)) for row in rows]
        )
        distinct = np.empty((len(first_seen), values.shape[1]))
        distinct[member_group] = values
        multiplicity = np.bincount(member_group, weights=weights)
        fraction = weights / multiplicity[member_group]
        return cls(distinct, multiplicity, capacities, member_group, fraction)


class ProblemInstance:
    """The input to every allocator: ``(W, m)``.

    ``capacities[j]`` is the number of devices of GPU type ``j`` (``m_j`` in
    the paper).  Capacities may be fractional — the fair-share evaluator
    works on fluid shares; integrality is the placer's job.
    """

    def __init__(
        self,
        speedups: SpeedupMatrix,
        capacities: Sequence[float] | np.ndarray,
    ):
        self.speedups = speedups
        capacity_array = np.asarray(capacities, dtype=float)
        if capacity_array.shape != (speedups.num_gpu_types,):
            raise ValidationError(
                f"capacities shape {capacity_array.shape} does not match "
                f"{speedups.num_gpu_types} GPU types"
            )
        # a NaN fails both tests
        if not (capacity_array.min() >= 0 and capacity_array.max() < np.inf):
            raise ValidationError("capacities must be finite and non-negative")
        if capacity_array.sum() <= 0:
            raise ValidationError("the cluster must have at least one device")
        self.capacities = capacity_array

    # -- convenience -------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self.speedups.num_users

    @property
    def num_gpu_types(self) -> int:
        return self.speedups.num_gpu_types

    def equal_split_throughput(self, user: Optional[int | str] = None):
        """Throughput of a 1/n partition of every GPU type (the SI bar).

        With ``user=None`` returns the full vector for all tenants.
        """
        share = self.capacities / self.num_users
        per_user = self.speedups.values @ share
        if user is None:
            return per_user
        return float(per_user[self.speedups.user_index(user)])

    def grouped(self, weights: Optional[np.ndarray] = None) -> GroupedInstance:
        """Fold byte-identical rows (no tolerance); ``weights`` default to 1."""
        values = self.speedups.values
        weights = np.ones(len(values)) if weights is None else np.asarray(weights, float)
        if weights.shape != (len(values),) or not (
            weights.min() > 0 and weights.max() < np.inf  # a NaN fails both
        ):
            raise ValidationError("one positive finite weight per instance row is required")
        return GroupedInstance.fold(values, weights, self.capacities)

    def with_speedups(self, speedups: SpeedupMatrix) -> "ProblemInstance":
        return ProblemInstance(speedups, self.capacities)

    def __repr__(self) -> str:
        return (
            f"ProblemInstance(users={self.num_users}, "
            f"gpu_types={self.num_gpu_types}, devices={self.capacities.sum():g})"
        )
