"""The 5.1 fold from tenant rows to groups, kept as a differential oracle.

Since 5.2 the fold is leaner: one tenant loop without inner
comprehensions, ``grouped`` keys rows by slices of one ``tobytes()``,
``merge`` hands a one-row tenant its row as its total, and the capacity
and speedup checks use the array methods.  The 5.1 pieces are kept here,
copied without edits apart from their names, so the tests can run them
beside the live code:

* :class:`VirtualUserExpansion` — the 5.1 tenant fold and ``merge``;
* :func:`grouped` — the 5.1 ``ProblemInstance.grouped`` body;
* :func:`check_capacities` — the 5.1 ``ProblemInstance`` capacity checks.

``SpeedupMatrix`` is the live class: its checks changed in spelling only.
Do not "tidy" the copied bodies: they are only worth anything while they
stay the old code.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import GroupedInstance, ProblemInstance
from repro.core.speedup import SpeedupMatrix
from repro.core.virtual import MergedAllocation, TenantRows, TenantSpec
from repro.exceptions import ValidationError


class VirtualUserExpansion:
    """Tenants as one weighted row per (tenant, job type), and back.

    ``tenants`` are :class:`TenantSpec` objects or :data:`TenantRows`
    tuples, stacked into one matrix and checked as the specs are (each a
    :class:`ValidationError`).
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec | TenantRows],
        gpu_types: Optional[Sequence[str]] = None,
    ):
        if not tenants:
            raise ValidationError("at least one tenant is required")
        #: (tenant name, its job type names), in row order
        self._layout: List[Tuple[str, List[str]]] = []
        vectors, users, weights = [], [], []
        for tenant in tenants:
            if isinstance(tenant, TenantSpec):
                tenant = (tenant.name, tenant.weight,
                          [(job.name, job.speedups) for job in tenant.job_types])
            name, weight, jobs = tenant
            if not jobs:
                raise ValidationError(f"tenant {name!r} needs at least one job type")
            if not weight > 0:
                raise ValidationError(f"tenant {name!r}: weight must be positive")
            self._layout.append((name, [job for job, _speedups in jobs]))
            # only ratios matter: nothing is scaled to integer replica counts
            weights += [float(weight) / len(jobs)] * len(jobs)
            vectors += [speedups for _job, speedups in jobs]
            users += [f"{name}/{job}" for job, _speedups in jobs]
        if len({name for name, _jobs in self._layout}) != len(self._layout):
            raise ValidationError("tenant names must be unique")
        try:
            rows = np.array(vectors, dtype=float)
        except ValueError:  # ragged
            rows = np.empty(0)
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ValidationError("speedups must be 1-D vectors of one length")
        if not (np.isfinite(rows).all() and (rows > 0).all()):
            raise ValidationError("speedups must be finite and positive")
        self.gpu_types = list(gpu_types) if gpu_types else None
        #: weight of each (tenant, job type) row: the tenant's, split equally
        self.weights = np.array(weights)
        self._matrix = SpeedupMatrix(
            rows / rows[:, :1], users=users, gpu_types=self.gpu_types,
            normalise=False, require_monotone=False,
        )

    # -- expansion -----------------------------------------------------------
    def expanded_matrix(self) -> SpeedupMatrix:
        """The speedup matrix with one row per (tenant, job type)."""
        return self._matrix

    # -- merging ---------------------------------------------------------------
    def merge(self, allocation: Allocation) -> MergedAllocation:
        """Fold a (tenant, job type)-row allocation back to tenants, in one pass.

        The shares are views of one copy of the allocation matrix.
        """
        if allocation.matrix.shape[0] != self._matrix.num_users:
            raise ValidationError("allocation was not computed on this expansion's matrix")
        shares = allocation.matrix.copy()
        # row l's W_l @ x_l, batched: the same matmul loop per row, same bits
        speeds = self._matrix.values
        throughputs = np.matmul(speeds[:, None, :], shares[:, :, None])[:, 0, 0].tolist()
        merged = MergedAllocation(allocation, self.weights, {}, {})
        start = 0
        for name, jobs in self._layout:
            stop = start + len(jobs)
            merged.job_type_shares[name] = dict(zip(jobs, shares[start:stop]))
            merged.job_type_throughput[name] = dict(zip(jobs, throughputs[start:stop]))
            merged.tenant_shares[name] = shares[start:stop].sum(axis=0)
            merged.tenant_throughput[name] = sum(throughputs[start:stop], 0.0)
            start = stop
        return merged


def grouped(self: ProblemInstance, weights: Optional[np.ndarray] = None) -> GroupedInstance:
    """Fold byte-identical rows (no tolerance); ``weights`` default to 1."""
    values = self.speedups.values
    first_seen: dict = {}
    member_group = np.array(
        [first_seen.setdefault(row.tobytes(), len(first_seen)) for row in values]
    )
    weights = np.ones(len(values)) if weights is None else np.asarray(weights, float)
    if weights.shape != (len(values),) or not np.all(weights > 0):
        raise ValidationError("one positive weight per instance row is required")
    multiplicity = np.bincount(member_group, weights=weights)
    distinct = np.empty((len(first_seen), values.shape[1]))
    distinct[member_group] = values
    fraction = weights / multiplicity[member_group]
    return GroupedInstance(
        distinct, multiplicity, self.capacities, member_group, fraction
    )


def check_capacities(speedups: SpeedupMatrix, capacities) -> np.ndarray:
    """The capacity checks of the 5.1 ``ProblemInstance.__init__``."""
    capacity_array = np.asarray(capacities, dtype=float)
    if capacity_array.shape != (speedups.num_gpu_types,):
        raise ValidationError(
            f"capacities shape {capacity_array.shape} does not match "
            f"{speedups.num_gpu_types} GPU types"
        )
    if np.any(capacity_array < 0) or not np.all(np.isfinite(capacity_array)):
        raise ValidationError("capacities must be finite and non-negative")
    if capacity_array.sum() <= 0:
        raise ValidationError("the cluster must have at least one device")
    return capacity_array
