"""Fig. 9: long-term JCT reduction on a Philly-like trace (§6.3.2).

A multi-day trace of tenants that exit once all their jobs complete.
OEF's JCT edge comes from (i) higher delivered throughput and (ii) the
deviation-accumulating rounding that keeps small tenants from starving
(paper: -17% vs Gandiva_fair, -19% vs Gavel).

The full paper-scale run (50 tenants x ~20 jobs x 3 days) takes parameters;
the defaults keep tests/claims/test_paper_claims.py fast at the same contention.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster import ClusterSimulator, SimulationConfig, paper_cluster
from repro.experiments.common import ExperimentResult
from repro.workloads.philly import PhillyTraceConfig, PhillyTraceGenerator


def _trace(config: PhillyTraceConfig):
    topology = paper_cluster()
    generator = PhillyTraceGenerator(
        config=config, cluster_devices=topology.num_devices
    )
    return generator.generate()


def run(
    num_tenants: int = 12,
    jobs_per_tenant_mean: float = 6.0,
    window_seconds: float = 8 * 3600.0,
    contention: float = 0.7,
    seed: int = 5,
    mode: str = "cooperative",
) -> ExperimentResult:
    trace_config = PhillyTraceConfig(
        num_tenants=num_tenants,
        jobs_per_tenant_mean=jobs_per_tenant_mean,
        window_seconds=window_seconds,
        contention=contention,
        seed=seed,
    )
    num_rounds = int(window_seconds / 300.0 * 3)  # generous completion slack

    jcts: Dict[str, float] = {}
    makespans: Dict[str, float] = {}

    for label, name in (("OEF", mode), ("Gandiva", "gandiva"), ("Gavel", "gavel")):
        metrics = ClusterSimulator(
            paper_cluster(),
            _trace(trace_config),
            name,
            config=SimulationConfig(num_rounds=num_rounds, stop_when_idle=True),
        ).run()
        jcts[label] = metrics.mean_jct()
        makespans[label] = metrics.makespan()

    result = ExperimentResult("Fig. 9 — mean JCT over a Philly-like trace")
    reference = jcts["OEF"]
    for scheduler_name, jct in jcts.items():
        result.rows.append(
            {
                "scheduler": scheduler_name,
                "mean JCT (s)": jct,
                "JCT ratio vs OEF": jct / reference if reference else 0.0,
                "makespan (s)": makespans[scheduler_name],
            }
        )
    result.notes.append(
        "paper: Gandiva_fair 1.17x and Gavel 1.19x the JCT of OEF; the "
        "advantage combines throughput gains with the starvation-free "
        "deviation rounding"
    )
    return result
