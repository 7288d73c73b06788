"""Fig. 4: strategy-proofness over time under non-cooperative OEF (§6.2.1).

Four tenants share the paper's 24-GPU cluster.  Panel (a): nobody cheats —
all four achieve near-identical normalised throughput, and when user-4
(a batch of VGG11 jobs) exits at minute 40 the remaining three still track
each other.  Panel (b): user-1 (LSTM jobs) inflates its reported speedups
— it ends up *worse off* than honest, honest users improve, and overall
throughput drops (~10% in the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster import ClusterSimulator, SimulationConfig, paper_cluster
from repro.experiments.common import ExperimentResult
from repro.workloads.generator import TenantGenerator

TENANT_MODELS = {
    "user1": "lstm",
    "user2": "transformer",
    "user3": "resnet50",
    "user4": "vgg11",
}


def _build_simulation(
    misreport: Optional[np.ndarray],
    num_rounds: int,
    departure_round: int,
    jobs_per_tenant: int,
    seed: int = 3,
):
    generator = TenantGenerator(seed=seed)
    tenants = []
    for name, model in TENANT_MODELS.items():
        tenant = generator.make_tenant(
            name,
            model_name=model,
            num_jobs=jobs_per_tenant,
            duration_on_slowest=3600.0 * 24,
        )
        tenants.append(tenant)
    # user-4 exits at the 40-minute mark (Fig. 4 caption)
    tenants[-1].departure_time = departure_round * 300.0
    config = SimulationConfig(
        num_rounds=num_rounds,
        misreports={"user1": misreport} if misreport is not None else {},
        stop_when_idle=False,
    )
    return ClusterSimulator(
        paper_cluster(), tenants, "noncooperative", config=config
    )


def run(
    num_rounds: int = 16,
    departure_round: int = 8,
    jobs_per_tenant: int = 10,
    cheat_factors: Optional[List[float]] = None,
) -> ExperimentResult:
    if cheat_factors is None:
        cheat_factors = [1.0, 1.25, 1.4]

    honest = _build_simulation(None, num_rounds, departure_round, jobs_per_tenant)
    honest_metrics = honest.run()
    cheating = _build_simulation(
        np.asarray(cheat_factors), num_rounds, departure_round, jobs_per_tenant
    )
    cheat_metrics = cheating.run()

    result = ExperimentResult("Fig. 4 — OEF penalises lying users")
    summary: Dict[str, Dict[str, float]] = {}
    for name in TENANT_MODELS:
        summary[name] = {
            "honest": honest_metrics.mean_tenant_throughput(name),
            "cheating": cheat_metrics.mean_tenant_throughput(name),
        }
        result.rows.append(
            {
                "tenant": name,
                "mean throughput (no one cheats)": summary[name]["honest"],
                "mean throughput (user1 cheats)": summary[name]["cheating"],
            }
        )
        result.series[f"{name}/honest"] = honest_metrics.tenant_series(name)
        result.series[f"{name}/cheating"] = cheat_metrics.tenant_series(name)

    liar_delta = summary["user1"]["cheating"] / summary["user1"]["honest"] - 1
    total_honest = honest_metrics.mean_total_actual()
    total_cheat = cheat_metrics.mean_total_actual()
    result.notes.append(
        f"cheater's own throughput changes {liar_delta * 100:+.1f}% "
        "(paper: strictly penalised)"
    )
    result.notes.append(
        f"overall throughput {total_honest:.2f} -> {total_cheat:.2f} "
        f"({(total_cheat / total_honest - 1) * 100:+.1f}%; paper: about -10%)"
    )
    result.notes.append(
        f"user4 departs at round {departure_round}; remaining users keep "
        "equal normalised progress (see series)"
    )
    return result
