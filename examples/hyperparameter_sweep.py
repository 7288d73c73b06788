"""Hyper-parameter sweep tenants on a simulated 24-GPU cluster (§2.1).

The paper's motivating workload: ~90% of production jobs are recurring
hyper-parameter search batches, so each tenant owns a batch of
same-model jobs that accelerate identically.  This example simulates four
such tenants on the paper's testbed (8x 3070 + 8x 3080 + 8x 3090) and
compares cooperative OEF against Max-Min fairness.

Run:  python examples/hyperparameter_sweep.py
"""

from repro.cluster import (
    ClusterSimulator,
    SimulationConfig,
    make_fair_share_scheduler,
    paper_cluster,
)
from repro.workloads import TenantGenerator

SWEEPS = {
    "vision-team": ("resnet50", 8),      # 8 learning-rate variants
    "detection-team": ("vgg16", 6),
    "nlp-team": ("transformer", 8),
    "speech-team": ("lstm", 6),
}


def build_tenants(seed: int):
    generator = TenantGenerator(seed=seed)
    return [
        generator.make_tenant(
            name, model_name=model, num_jobs=num_jobs,
            duration_on_slowest=6 * 3600.0,
        )
        for name, (model, num_jobs) in SWEEPS.items()
    ]


def run(scheduler, label: str, seed: int = 42) -> None:
    # the scheduler brings its own placer and rounding rule (§6.1.3)
    simulator = ClusterSimulator(
        paper_cluster(),
        build_tenants(seed),
        scheduler,
        config=SimulationConfig(num_rounds=96, stop_when_idle=True),
    )
    metrics = simulator.run()
    print(f"--- {label} ---")
    for tenant in SWEEPS:
        jcts = metrics.jcts(tenant)
        mean_jct = sum(jcts) / len(jcts) / 3600.0 if jcts else float("nan")
        print(
            f"  {tenant:<16} mean throughput "
            f"{metrics.mean_tenant_throughput(tenant):6.2f}  "
            f"mean JCT {mean_jct:5.2f} h  jobs done {len(jcts)}"
        )
    print(
        f"  cluster: mean total throughput {metrics.mean_total_actual():.2f}, "
        f"makespan {metrics.makespan() / 3600.0:.2f} h"
    )


def build_simulator(seed: int) -> ClusterSimulator:
    """Module-level factory so `run_sweep` can ship it to process workers."""
    return ClusterSimulator(
        paper_cluster(),
        build_tenants(seed),
        make_fair_share_scheduler("oef-coop"),
        config=SimulationConfig(num_rounds=96, stop_when_idle=True),
    )


def monte_carlo(seeds=range(4)) -> None:
    """Seed-sweep the OEF stack across cores (`backend="auto"`)."""
    collectors = ClusterSimulator.run_sweep(build_simulator, seeds, backend="auto")
    throughputs = [m.mean_total_actual() for m in collectors]
    mean = sum(throughputs) / len(throughputs)
    spread = max(throughputs) - min(throughputs)
    print(
        f"--- Monte-Carlo over {len(throughputs)} seeds ---\n"
        f"  mean cluster throughput {mean:.2f} "
        f"(min {min(throughputs):.2f}, max {max(throughputs):.2f}, "
        f"spread {spread:.2f})"
    )


def main() -> None:
    # registry names (or aliases) are all a caller needs
    run(make_fair_share_scheduler("oef-coop"), "cooperative OEF + OEF placer")
    run(make_fair_share_scheduler("max-min"), "Max-Min + naive placer")
    monte_carlo()


if __name__ == "__main__":
    main()
