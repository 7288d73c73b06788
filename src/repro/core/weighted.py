"""Weighted OEF: priorities and multiple job types as multiplicities (§4.2.3).

:class:`WeightedOEF` accepts :class:`~repro.core.virtual.TenantSpec` objects
or plain :data:`~repro.core.virtual.TenantRows` tuples (with weights and
one or more job types), enters each (tenant, job type) as one row weighted
``weight / len(job_types)``, runs the selected OEF variant with those
weights, and folds the result back to per-tenant and per-job-type shares.

The paper argues by replication — what OEF guarantees between users holds
between a tenant's identical virtual users, hence proportionally between
weighted tenants; the allocators reach the same optimum without the copies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.cooperative import CooperativeOEF
from repro.core.noncooperative import NonCooperativeOEF
from repro.core.virtual import MergedAllocation, TenantRows, TenantSpec, VirtualUserExpansion
from repro.exceptions import ValidationError

_MODES = ("noncooperative", "cooperative")


class WeightedOEF:
    """OEF with tenant weights and multiple job types per tenant."""

    def __init__(self, mode: str = "noncooperative"):
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.name = f"oef-weighted-{'noncoop' if mode == 'noncooperative' else 'coop'}"

    def allocate(
        self,
        tenants: Sequence[TenantSpec | TenantRows],
        capacities: Sequence[float] | np.ndarray,
        gpu_types: Sequence[str] | None = None,
    ) -> MergedAllocation:
        """Allocate the cluster among weighted tenants.

        ``(name, weight, [(job type, speedups), ...])`` tuples go through
        the same fold as specs without building one; every spec check
        still raises.  Returns a :class:`MergedAllocation` with tenant- and
        job-type-level shares and throughputs; the (tenant, job type)-row
        allocation and its weights are kept in ``.expanded`` / ``.weights``
        for auditing.
        """
        expansion = VirtualUserExpansion(tenants, gpu_types=gpu_types)
        instance, groups = expansion.problem(capacities)
        solver = NonCooperativeOEF if self.mode == "noncooperative" else CooperativeOEF
        allocation = solver().allocate_with_state(instance, groups=groups)
        # this call's own matrix: frozen, merge's shares are views of it
        allocation.matrix.setflags(write=False)
        return expansion.merge(allocation)
