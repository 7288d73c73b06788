"""The workloads: what each runs, why it exists, and its seeded inputs.

Inputs are generated here, in the benchmark process, from ``--seed``; the
program under test (a ``repro serve`` subprocess, or a worker process
calling the library) receives only what this module generated.

Sizes were probed on a 2-core host so that one timed block takes 0.1-0.7 s:
each of a run's :data:`SEGMENTS` fresh processes then has ten or more blocks
to take a median over, and the driver's 114 runs fit its time budget.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

#: Fresh processes per untraced run.  Each sets up from scratch, so
#: ``setup_s`` and ``peak_rss_mb`` are medians over this many set-ups.
SEGMENTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    #: which driver runs it: "serve" (server subprocess + load client),
    #: or "replay" / "fleet" / "solve" (library calls in a worker process)
    kind: str
    #: the operation ``ops_per_s`` counts, and the call ``latency_p50_ms`` times
    op: str
    why: str
    size: Dict[str, object]
    #: overrides for ``--smoke`` (about a tenth of the work)
    smoke: Dict[str, object] = field(default_factory=dict)

    def shape(self, smoke: bool) -> Dict[str, object]:
        return {**self.size, **(self.smoke if smoke else {})}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve-hot",
            "serve",
            "HTTP request (latency: closed loop; the traced run adds a paced open loop)",
            "every request is a cache read: HTTP codec, protocol, shard hop and the "
            "gateway's upper stages do all the work, core and solver none",
            dict(users=8, gpu_types=4, bodies=64, schedulers=("oef-coop",),
                 block=100, traced_rps=800.0, warmup=500, paced_rps=300.0, sample=16),
            dict(block=20, warmup=50, paced_rps=100.0, sample=4),
        ),
        Workload(
            "serve-miss",
            "serve",
            "HTTP request (latency: closed loop)",
            "every request is a distinct instance: cache miss + insert, service time is "
            "LP build + solve and HTTP is noise; bypasses what serve-hot exercises",
            dict(users=32, gpu_types=6, bodies=1000,
                 # two to one: an even mix of a 16 ms and a 4 ms solve has its
                 # median in the gap between them, where it is anybody's
                 schedulers=("oef-coop", "oef-coop", "oef-noncoop"),
                 block=9, traced_rps=50.0, warmup=21, paced_rps=0.0, sample=9),
            dict(users=16, gpu_types=4, bodies=200, block=3, warmup=6, sample=3),
        ),
        Workload(
            "replay-steady",
            "replay",
            "simulated round (latency: one ScenarioRunner.run())",
            "all but the first round hit the decision memo: profiler, rounding, placement, "
            "metrics and distill_round dominate and the solver is idle",
            dict(scenario="steady", rounds=256, shape=dict(
                num_tenants=24, jobs_per_tenant=4, duration_fraction=2.0)),
            dict(rounds=64),
        ),
        Workload(
            "replay-churn",
            "replay",
            "simulated round (latency: one ScenarioRunner.run())",
            "tenant churn flushes the memo so about half the rounds re-solve: "
            "schedulers -> core -> solver dominate, memo and placement are the minority",
            dict(scenario="tenant-churn", rounds=96, shape=dict(
                resident_tenants=12, churn_tenants=36, jobs_per_tenant=2,
                lifetime_fraction=0.2)),
            dict(rounds=32, shape=dict(
                resident_tenants=6, churn_tenants=10, jobs_per_tenant=2,
                lifetime_fraction=0.2)),
        ),
        Workload(
            "fleet-failover",
            "fleet",
            "simulated region-round (latency: one FleetSimulator.run() + window summary)",
            "the only path through the rebalance pre-pass, the region fan-out on the "
            "default backend, and the streaming metrics sink",
            dict(scenario="multiregion-failover", regions=4, rounds=24, shape=dict(
                tenants_per_region=6, jobs_per_tenant=2)),
            dict(rounds=8, shape=dict(tenants_per_region=4, jobs_per_tenant=2)),
        ),
        Workload(
            "solve-fig10",
            "solve",
            "cold oef-coop + oef-noncoop solve of one instance "
            "(latency: the CooperativeOEF.allocate call, Fig. 10a)",
            "pure core + solver on cutting-plane-sized instances, no server or simulator "
            "around it: splits a cold solve into cut generation, HiGHS and assembly",
            dict(users=150, gpu_types=10, instances=2),
            dict(users=80, gpu_types=6),
        ),
    )
}


def derive(seed: int, index: int) -> int:
    """A distinct, reproducible seed for the ``index``-th input of a run."""
    return seed * 1009 + index


def serve_bodies(workload: Workload, seed: int, smoke: bool) -> List[bytes]:
    """``POST /solve`` bodies, schedulers cycling over distinct instances."""
    from repro.core.serialization import instance_to_dict
    from repro.server.protocol import json_bytes
    from repro.workloads.generator import random_instance

    shape = workload.shape(smoke)
    schedulers = shape["schedulers"]
    return [
        json_bytes(
            {
                "instance": instance_to_dict(
                    random_instance(
                        shape["users"], shape["gpu_types"], seed=derive(seed, index)
                    )
                ),
                "scheduler": schedulers[index % len(schedulers)],
            }
        )
        for index in range(shape["bodies"])
    ]


def cycle_order(pool: int, seed: int) -> Iterator[int]:
    """Body indices without end: one seeded shuffle of the pool after another."""
    rng = random.Random(seed)
    while True:
        indices = list(range(pool))
        rng.shuffle(indices)
        yield from indices


def request_order(count: int, pool: int, seed: int) -> List[int]:
    """The first ``count`` indices of :func:`cycle_order`."""
    return list(itertools.islice(cycle_order(pool, seed), count))


def worker_inputs(
    workload: Workload, seed: int, segment: int, smoke: bool
) -> Dict[str, object]:
    """What one worker process is handed (JSON-serialisable).

    Each segment gets inputs of its own: how much a recipe costs depends on
    its seed (``tenant-churn``: by a tenth between seeds), so a run averages
    over as many recipes as it has segments.
    """
    shape = workload.shape(smoke)
    if workload.kind == "solve":
        from repro.core.serialization import instance_to_dict
        from repro.workloads.generator import random_instance

        users, count = shape["users"], shape["instances"]
        return {
            "instances": [
                instance_to_dict(
                    random_instance(
                        users, shape["gpu_types"],
                        seed=derive(seed, segment * count + index),
                        devices_per_type=users,
                    )
                )
                for index in range(count)
            ]
        }
    # a recipe is its name, shape and seed
    return {**shape, "seed": derive(seed, segment)}
