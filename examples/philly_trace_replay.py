"""Replay a Philly-like trace and compare long-run JCT across schedulers.

Generates a synthetic multi-tenant trace with Philly-shaped statistics
(heavy-tailed durations, mostly single-GPU jobs, Poisson arrivals) and
replays it under OEF and both heterogeneity-aware baselines — a compact
version of the paper's Fig. 9 experiment.

Run:  python examples/philly_trace_replay.py
"""

from repro.cluster import ClusterSimulator, SimulationConfig, paper_cluster
from repro.workloads import PhillyTraceConfig, PhillyTraceGenerator

TRACE = PhillyTraceConfig(
    num_tenants=10,
    jobs_per_tenant_mean=5.0,
    window_seconds=6 * 3600.0,
    contention=0.6,
    seed=9,
)


def replay(label: str, name: str) -> None:
    # each scheduler brings its own placer and rounding rule (§6.1.3)
    topology = paper_cluster()
    tenants = PhillyTraceGenerator(
        config=TRACE, cluster_devices=topology.num_devices
    ).generate()
    simulator = ClusterSimulator(
        topology,
        tenants,
        name,
        config=SimulationConfig(
            num_rounds=int(TRACE.window_seconds / 300 * 3),
            stop_when_idle=True,
        ),
    )
    metrics = simulator.run()
    print(
        f"{label:<14} mean JCT {metrics.mean_jct() / 3600.0:6.2f} h   "
        f"jobs finished {len(metrics.completions):4d}   "
        f"starvation-rounds {metrics.total_starvation_rounds():4d}"
    )


def main() -> None:
    print(f"cluster: {paper_cluster().summary()}")
    replay("OEF", "cooperative")
    for name in ("gandiva", "gavel"):
        replay(name.capitalize(), name)


if __name__ == "__main__":
    main()
