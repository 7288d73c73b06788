"""Fig. 7: training throughput, non-cooperative setting, 20 tenants (§6.3.1).

Estimated (evaluator-level) throughput of non-cooperative OEF is
comparable to Gandiva_fair and Gavel — the equal-throughput constraints
cost efficiency but buy strategy-proofness.  *Actual* throughput favours
OEF (~10% in the paper) thanks to its placer: host packing, contention
alleviation, and adjacent-type allocations.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster import ClusterSimulator, SimulationConfig, paper_cluster
from repro.cluster.tenant import Tenant
from repro.experiments.common import ExperimentResult
from repro.workloads.generator import TenantGenerator
from repro.workloads.models import all_models

# Honest reproduction note (tests/claims/test_paper_claims.py): our Gavel and
# Gandiva_fair are *idealised* LP/trading implementations, so their
# evaluator-level ("estimated") efficiency sits within a few percent of
# OEF's — the paper's own worked example (§2.4) shows the same ~2% fluid
# gap.  The paper's 20%/32% margins come from system-level realisation
# (time-sliced scheduling, rounding, placement), which is where our
# "actual" comparison reproduces the ordering.


_WORKER_CYCLE = (1, 2, 1, 4, 2)


def _population(num_tenants: int, jobs_per_tenant: int, seed: int) -> List[Tenant]:
    """Tenants with a Philly-like mix of 1/2/4-worker jobs.

    Multi-worker jobs are what make placement matter: single-GPU jobs can
    never straggle or span hosts, so an all-1-worker population would hide
    the placer's contribution (the paper's actual-vs-estimated gaps).
    """
    generator = TenantGenerator(seed=seed)
    models = all_models()
    tenants: List[Tenant] = []
    for index in range(num_tenants):
        tenant = Tenant(name=f"tenant{index + 1}")
        for job_index in range(jobs_per_tenant):
            tenant.add_job(
                generator.make_job(
                    tenant.name,
                    models[index % len(models)],
                    num_workers=_WORKER_CYCLE[job_index % len(_WORKER_CYCLE)],
                    duration_on_slowest=3600.0 * 24,
                )
            )
        tenants.append(tenant)
    return tenants


def run_setting(
    mode: str,
    num_tenants: int = 20,
    jobs_per_tenant: int = 4,
    num_rounds: int = 10,
    seed: int = 21,
) -> Dict[str, Dict[str, float]]:
    """Throughput of OEF(mode) vs both baselines on identical populations."""
    outcomes: Dict[str, Dict[str, float]] = {}
    for label, name in (("OEF", mode), ("Gandiva", "gandiva"), ("Gavel", "gavel")):
        metrics = ClusterSimulator(
            paper_cluster(),
            _population(num_tenants, jobs_per_tenant, seed),
            name,
            config=SimulationConfig(num_rounds=num_rounds, stop_when_idle=False),
        ).run()
        outcomes[label] = {
            "estimated": metrics.mean_total_estimated(),
            "actual": metrics.mean_total_actual(),
        }
    return outcomes


def tabulate(outcomes: Dict[str, Dict[str, float]], title: str) -> ExperimentResult:
    result = ExperimentResult(title)
    reference = min(values["actual"] for values in outcomes.values())
    reference_est = min(values["estimated"] for values in outcomes.values())
    for scheduler, values in outcomes.items():
        result.rows.append(
            {
                "scheduler": scheduler,
                "estimated": values["estimated"],
                "estimated (norm.)": values["estimated"] / reference_est,
                "actual": values["actual"],
                "actual (norm.)": values["actual"] / reference,
            }
        )
    return result


def run(
    num_tenants: int = 20,
    jobs_per_tenant: int = 4,
    num_rounds: int = 10,
) -> ExperimentResult:
    outcomes = run_setting(
        "noncooperative",
        num_tenants=num_tenants,
        jobs_per_tenant=jobs_per_tenant,
        num_rounds=num_rounds,
    )
    result = tabulate(outcomes, "Fig. 7 — throughput, non-cooperative setting")
    result.notes.append(
        "estimated throughput is comparable across schedulers (paper: "
        "baselines up to 1.03x); OEF leads on actual throughput via its "
        "placer (paper: 1.10x)"
    )
    return result
