"""Quickstart: allocate a heterogeneous GPU cluster through the gateway.

Builds the paper's running example (three tenants, two GPU types), solves
it with every registered scheduler in one ``solve_batch`` call, audits
cooperative OEF with its registry-sourced audit policy, and shows the
content-hash allocation cache at work.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Gateway,
    ProblemInstance,
    Request,
    SpeedupMatrix,
    scheduler_names,
)


def main() -> None:
    # one row per tenant, one column per GPU type (slowest first); rows are
    # normalised so the slowest type has speedup 1
    speedups = SpeedupMatrix(
        [
            [1.0, 2.0],  # e.g. a VGG-style job: modest gain on the fast GPU
            [1.0, 3.0],
            [1.0, 4.0],  # e.g. an LSTM-style job: large gain
        ],
        users=["alice", "bob", "carol"],
        gpu_types=["rtx3070", "rtx3090"],
    )
    instance = ProblemInstance(speedups, capacities=[1.0, 1.0])

    gateway = Gateway()

    print("=== allocations (one solve_batch over every registered scheduler) ===")
    requests = [Request(instance, name) for name in scheduler_names()]
    for result in gateway.solve_batch(requests):
        allocation = result.allocation
        throughput = np.round(allocation.user_throughput(), 3)
        print(f"{result.scheduler:>14}:  X =")
        for user, row in zip(speedups.users, np.round(allocation.matrix, 3)):
            print(f"{'':>16}{user:<6} {row}")
        print(
            f"{'':>16}throughput per tenant = {throughput}, "
            f"total = {allocation.total_efficiency():.3f}"
        )

    print("\n=== Table-1 property audit (cooperative OEF) ===")
    # pe_within / efficiency_constraint come from the registry metadata
    report = gateway.audit(instance, "oef-coop")
    for key, value in report.as_row().items():
        print(f"  {key}: {value}")

    stats = gateway.cache_info()
    print(
        f"\ncache: {stats.hits} hits / {stats.misses} misses "
        f"(the audit reused the batch's oef-coop solve)"
    )


if __name__ == "__main__":
    main()
