"""Allocation matrices and their derived efficiency metrics."""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.core.instance import ProblemInstance
from repro.exceptions import ValidationError


class Certificate(NamedTuple):
    """Why an OEF allocation is optimal in its domain: the duals of the
    program it solved, stated for the total ``sum_g W_g . z_g`` over the
    instance's groups.  ``capacity``: the capacity rows' (Eq. 9b / 10b);
    ``keys`` / ``duals``: the nonzero ones of the domain rows, (10c) keyed
    by group pair when ``domain`` is ``"envy_free"``, (9c) by group when
    it is ``"equal_throughput"``; ``multiplicity``: the ``m_g`` the rows
    were posed with.  :func:`~repro.core.properties.certified_total`
    checks it before trusting it.
    """

    domain: str
    multiplicity: np.ndarray
    capacity: np.ndarray
    keys: np.ndarray
    duals: np.ndarray


class Allocation:
    """An allocation matrix ``X`` bound to the instance it was computed for.

    ``matrix[l, j]`` is the (possibly fractional) number of type-``j``
    devices given to tenant ``l``.  All efficiency metrics in the paper are
    linear functions of this matrix and the speedup matrix ``W``:

    * per-user *normalised throughput* (the paper's efficiency vector
      ``E``): ``E_l = W_l . x_l``;
    * *total efficiency*: ``sum_l E_l`` (objective 9a / 10a);
    * *cross evaluation* ``W_l . x_i`` — what tenant ``l`` would get from
      tenant ``i``'s share, used by the envy-freeness audit and Fig. 6.
    """

    #: set by the OEF allocators on their own answers; ``None`` elsewhere
    certificate: Optional[Certificate] = None

    def __init__(
        self,
        matrix: np.ndarray,
        instance: ProblemInstance,
        allocator_name: str = "",
        capacity_tolerance: float = 1e-6,
    ):
        array = np.asarray(matrix, dtype=float)
        expected = (instance.num_users, instance.num_gpu_types)
        if array.shape != expected:
            raise ValidationError(
                f"allocation shape {array.shape} does not match instance {expected}"
            )
        # fmin skips NaN, as an elementwise ``array < -tol`` test does
        if np.fmin.reduce(array, axis=None, initial=np.inf) < -capacity_tolerance:
            raise ValidationError("allocation contains negative shares")
        overful = array.sum(axis=0) > instance.capacities + capacity_tolerance
        if overful.any():
            raise ValidationError(
                "allocation exceeds capacity for GPU type(s) "
                f"{np.flatnonzero(overful).tolist()}"
            )
        self.matrix = np.maximum(array, 0.0)  # a new array, -0.0 -> 0.0
        self.instance = instance
        self.allocator_name = allocator_name

    @classmethod
    def checked(
        cls, matrix: np.ndarray, instance: ProblemInstance, allocator_name: str = "",
        certificate: Optional[Certificate] = None,
    ) -> "Allocation":
        """An allocation over ``matrix`` as it is: an array a validating
        :class:`Allocation` already produced for ``instance``'s content,
        shared from here on, not copied or tested again, with the
        ``certificate`` that answer carried (checked where it is read)."""
        allocation = cls.__new__(cls)
        allocation.matrix = matrix
        allocation.instance = instance
        allocation.allocator_name = allocator_name
        allocation.certificate = certificate
        return allocation

    # -- metrics -------------------------------------------------------------
    def user_throughput(self, user: Optional[int | str] = None):
        """Normalised throughput per tenant (``E`` vector), or one entry."""
        throughputs = np.einsum(
            "lj,lj->l", self.instance.speedups.values, self.matrix
        )
        if user is None:
            return throughputs
        return float(throughputs[self.instance.speedups.user_index(user)])

    def total_efficiency(self) -> float:
        """Overall resource efficiency ``sum_l W_l . x_l`` (objective 9a)."""
        return float(self.user_throughput().sum())

    def cross_throughput(self) -> np.ndarray:
        """``C[l, i] = W_l . x_i``: tenant ``l`` evaluated on ``i``'s share."""
        return self.instance.speedups.values @ self.matrix.T

    def envy_matrix(self) -> np.ndarray:
        """``C[l, i] - C[l, l]``: positive entries mean ``l`` envies ``i``."""
        cross = self.cross_throughput()
        own = np.diag(cross).copy()
        return cross - own[:, None]

    def sharing_incentive_gap(self) -> np.ndarray:
        """``E_l - W_l . m/n``: negative entries violate sharing incentive."""
        return self.user_throughput() - self.instance.equal_split_throughput()

    def utilisation(self) -> np.ndarray:
        """Share of each GPU type's capacity handed out."""
        capacities = self.instance.capacities
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(capacities > 0, self.matrix.sum(axis=0) / capacities, 0.0)
        return ratio

    def gpu_types_used(self, user: int | str, tol: float = 1e-6) -> list:
        """Indices of GPU types with a non-negligible share for a tenant."""
        row = self.matrix[self.instance.speedups.user_index(user)]
        return [int(j) for j in np.flatnonzero(row > tol)]

    def __repr__(self) -> str:
        return (
            f"Allocation(by={self.allocator_name or 'unknown'}, "
            f"total_efficiency={self.total_efficiency():.4f})"
        )
