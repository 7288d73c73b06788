"""OEF core: the paper's primary contribution.

This package contains the speedup/allocation data model, the two OEF
linear-programming allocators (non-cooperative, Eq. 9; cooperative, Eq. 10),
the weighted / multi-job-type extension via row multiplicities (§4.2.3–4.2.4),
and LP-based auditors for the fairness properties of Table 1.
"""

from repro.core.allocation import Allocation
from repro.core.analysis import (
    FrontierPoint,
    compare_allocators,
    efficiency_fairness_frontier,
    frontier_point,
    jain_index,
    min_max_ratio,
)
from repro.core.base import Allocator
from repro.core.cooperative import CooperativeOEF
from repro.core.elastic import JobLevelAllocation, JobLevelOEF
from repro.core.instance import ProblemInstance
from repro.core.noncooperative import NonCooperativeOEF
from repro.core.properties import (
    PropertyReport,
    audit_allocator,
    check_envy_freeness,
    check_pareto_efficiency,
    check_sharing_incentive,
    check_strategy_proofness,
    optimal_efficiency_upper_bound,
)
from repro.core.serialization import (
    allocation_from_dict,
    allocation_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_allocation,
    load_instance,
    save_allocation,
    save_instance,
)
from repro.core.speedup import SpeedupMatrix
from repro.core.virtual import JobTypeSpec, TenantSpec, VirtualUserExpansion
from repro.core.weighted import WeightedOEF

__all__ = [
    "Allocation",
    "FrontierPoint",
    "JobLevelAllocation",
    "JobLevelOEF",
    "allocation_from_dict",
    "allocation_to_dict",
    "compare_allocators",
    "efficiency_fairness_frontier",
    "frontier_point",
    "instance_from_dict",
    "instance_to_dict",
    "jain_index",
    "load_allocation",
    "load_instance",
    "min_max_ratio",
    "save_allocation",
    "save_instance",
    "Allocator",
    "CooperativeOEF",
    "JobTypeSpec",
    "NonCooperativeOEF",
    "ProblemInstance",
    "PropertyReport",
    "SpeedupMatrix",
    "TenantSpec",
    "VirtualUserExpansion",
    "WeightedOEF",
    "audit_allocator",
    "check_envy_freeness",
    "check_pareto_efficiency",
    "check_sharing_incentive",
    "check_strategy_proofness",
    "optimal_efficiency_upper_bound",
]
