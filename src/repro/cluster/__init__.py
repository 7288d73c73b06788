"""Cluster runtime: the simulated testbed OEF and the baselines run on.

Substitutes the paper's 24-GPU physical cluster (see DESIGN.md §2): the
scheduling algorithms are the real ones; only job execution is simulated
(iterations/sec × time, with straggler and network-contention effects).
"""

from repro.cluster.gpu import GPUDevice, GPUType, Host
from repro.cluster.job import Job, JobState, make_job
from repro.cluster.metrics import CompletionRecord, MetricsCollector, RoundMetrics
from repro.cluster.network import NetworkModel
from repro.cluster.placement import JobTable, Placer
from repro.cluster.profiler import ProfilingAgent
from repro.cluster.rounding import DeviationRounder, RoundingQuestion, RoundingResult
from repro.cluster.schedulers import (
    ElasticOEFScheduler,
    FairShareScheduler,
    OEFScheduler,
    SchedulerDecision,
    SingleProfileScheduler,
    make_fair_share_scheduler,
)
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.cluster.straggler import StragglerModel, StragglerOutcome
from repro.cluster.tenant import Tenant
from repro.cluster.topology import (
    ClusterTopology,
    HostGroupSpec,
    paper_cluster,
    scaled_cluster,
)

__all__ = [
    "ClusterSimulator",
    "ClusterTopology",
    "CompletionRecord",
    "DeviationRounder",
    "ElasticOEFScheduler",
    "FairShareScheduler",
    "GPUDevice",
    "GPUType",
    "Host",
    "HostGroupSpec",
    "Job",
    "JobTable",
    "JobState",
    "MetricsCollector",
    "NetworkModel",
    "OEFScheduler",
    "Placer",
    "ProfilingAgent",
    "RoundMetrics",
    "RoundingQuestion",
    "RoundingResult",
    "SchedulerDecision",
    "SimulationConfig",
    "SingleProfileScheduler",
    "StragglerModel",
    "StragglerOutcome",
    "Tenant",
    "make_fair_share_scheduler",
    "make_job",
    "paper_cluster",
    "scaled_cluster",
]
