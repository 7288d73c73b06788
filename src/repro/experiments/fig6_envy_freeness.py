"""Fig. 6: envy-freeness under cooperative OEF (§6.2.4).

For four tenants, evaluate each tenant's speedup vector against *every*
tenant's allocated share.  The diagonal (own share) must dominate each
row: nobody would gain by swapping allocations with anyone else.
"""

from __future__ import annotations

import numpy as np

from repro.core import check_envy_freeness
from repro.registry import create_scheduler
from repro.workloads.generator import zoo_instance
from repro.experiments.common import ExperimentResult

MODELS = ["vgg16", "resnet50", "transformer", "lstm"]


def run(models=None, capacities=None) -> ExperimentResult:
    instance = zoo_instance(models or MODELS, capacities=capacities)
    allocation = create_scheduler("oef-coop").allocate(instance)
    cross = allocation.cross_throughput()

    result = ExperimentResult("Fig. 6 — cross-evaluated throughput (cooperative OEF)")
    num_users = instance.num_users
    for row in range(num_users):
        own = cross[row, row]
        entry = {"tenant": f"user{row + 1} ({(models or MODELS)[row]})"}
        for col in range(num_users):
            # normalise like the paper: ratio of own throughput to the
            # throughput this tenant would get on user-col's share
            value = cross[row, row] / cross[row, col] if cross[row, col] > 0 else np.inf
            entry[f"vs user{col + 1}'s share"] = float(value)
        entry["own throughput"] = float(own)
        result.rows.append(entry)

    report = check_envy_freeness(allocation)
    result.notes.append(
        "all off-diagonal ratios >= 1: no tenant prefers another's share "
        f"(EF check: {'holds' if report.satisfied else 'VIOLATED'})"
    )
    return result
