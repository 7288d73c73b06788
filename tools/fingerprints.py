#!/usr/bin/env python3
"""Build or compare the replay fingerprint manifest.

A change meant to keep every scheduling outcome (a speed-up, a refactor)
must leave every fingerprint as it was.  This script writes one JSON
manifest of them and compares two manifests:

    python tools/fingerprints.py --out head.json
    python tools/fingerprints.py --compare parent.json head.json

The manifest holds, keyed by ``family/...`` strings:

* ``replay/<scenario>/<scheduler>/<memo|cold>``: each library scenario
  (default shape and seed) under every registry name and alias and both
  ``oef-elastic-*`` modes, with the decision memo on and off; the value
  is the fingerprint with the run's warm hits and cold solves;
* ``fleet/<fleet>/<backend>``: each library fleet on the serial, thread
  and process backends;
* ``bench/<workload>``: the benchmark's replay and fleet shapes
  (``bench/workloads.py``) at seed :data:`BENCH_SEED`;
* ``alloc/<scheduler>/<users>x<types>/<seed>``: each registry
  allocator's cold answer on :func:`random_instance` over a grid that
  crosses ``oef-coop``'s full/cutting-plane threshold (:data:`ALLOC_USERS`
  x :data:`ALLOC_TYPES`); the value is the SHA-256 of the allocation
  matrix's bytes (or the error the allocator raised);
* ``quota/<fleet>``: each library fleet's rebalance pre-pass, one entry
  per window with its exact shares and PE/SI verdicts, which the eighths
  the regions are shipped can hide;
* ``wire/<scheduler>/<users>x<types>/<seed>``: for :data:`WIRE_SCHEDULERS`
  on the ``alloc/`` grid, the SHA-256 of the ``/solve`` wire bytes
  (``json_bytes(response_payload(...))`` without the ``served`` block)
  of the cold answer and of the cache hit of the same request through
  ``Gateway(default_pipeline())``, and whether the two are equal — so a
  change to what a hit encodes moves a key;
* ``pe/<scheduler>/<users>x<types>/<seed>``: for :data:`PE_SCHEDULERS` on
  the ``alloc/`` grid, the PE verdict of the cold answer in each domain
  (unconstrained, envy-free, equal throughput) and its optimal-efficiency
  verdict under the scheduler's registered constraint, booleans only, so
  a verdict read from a certificate must equal the one an LP gives.

``--compare A B`` prints every key whose value moved or that only one
side has, and exits 1 if there is any.  Run both sides on one Python and
numpy: fingerprints are compared between runs, never pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Fleet backends whose fingerprints must agree.
BACKENDS = ("serial", "thread", "process")

#: Round-level schedulers outside the registry.
ELASTIC = ("oef-elastic-coop", "oef-elastic-noncoop")

#: Benchmark workloads that replay (the serve and solve ones do not).
BENCH_WORKLOADS = ("replay-steady", "replay-churn", "fleet-failover")

#: The ``bench/run.py --seed`` the benchmark shapes are built with.
BENCH_SEED = 0

#: The ``alloc/`` grid: users on both sides of the cutting-plane threshold.
ALLOC_USERS = (2, 8, 24, 25, 40)
ALLOC_TYPES = (1, 4, 8)
ALLOC_SEEDS = (0,)

#: Schedulers whose cold and cache-hit wire bytes the ``wire/`` keys hold.
WIRE_SCHEDULERS = ("max-min", "oef-coop", "oef-noncoop")

#: Schedulers whose PE and optimal-efficiency verdicts the ``pe/`` keys hold.
PE_SCHEDULERS = ("oef-coop", "oef-noncoop")


def replay_schedulers() -> List[str]:
    """Every registry name and alias, then the elastic modes."""
    from repro.registry import REGISTRY

    names = [name for info in REGISTRY for name in (info.name, *info.aliases)]
    return sorted(names) + list(ELASTIC)


def _replay(scenario, scheduler: str, cold: bool) -> Dict[str, object]:
    from repro.scenarios import ScenarioRunner

    overrides = {"warm_start": False} if cold else None
    result = ScenarioRunner(scenario, scheduler, config_overrides=overrides).run()
    return {
        "fingerprint": result.fingerprint(),
        "warm_hits": result.warm_hits,
        "cold_solves": result.cold_solves,
    }


def _fleet(fleet, backend: str) -> Dict[str, object]:
    from repro.fleet import FleetSimulator

    return {"fingerprint": FleetSimulator(fleet, backend=backend).run().fingerprint()}


def _allocation(name: str, instance) -> Dict[str, object]:
    from repro.registry import create_scheduler
    from repro.solver import FORM_CACHE

    FORM_CACHE.clear()  # a cold answer
    try:
        matrix = create_scheduler(name).allocate(instance).matrix
    except Exception as error:  # an allocator's refusal is its answer too
        return {"error": type(error).__name__}
    digest = hashlib.sha256(matrix.dtype.str.encode() + matrix.tobytes())
    return {"matrix": digest.hexdigest(), "shape": list(matrix.shape)}


def _wire(name: str, instance) -> Dict[str, object]:
    from repro.gateway import Gateway, default_pipeline
    from repro.server.protocol import json_bytes, response_payload
    from repro.solver import FORM_CACHE

    FORM_CACHE.clear()  # a cold answer
    gateway = Gateway(default_pipeline())
    digests = {}
    try:
        for serving in ("cold", "hit"):
            payload = response_payload(gateway.solve(instance, name))
            del payload["served"]  # the telemetry that varies per serving
            digests[serving] = hashlib.sha256(json_bytes(payload)).hexdigest()
    except Exception as error:  # an allocator's refusal is its answer too
        return {"error": type(error).__name__}
    return {**digests, "equal": digests["cold"] == digests["hit"]}


def _verdicts(name: str, instance) -> Dict[str, object]:
    from repro.core.properties import check_optimal_efficiency, check_pareto_efficiency
    from repro.registry import create_scheduler, scheduler_info
    from repro.solver import FORM_CACHE

    FORM_CACHE.clear()  # a cold answer
    allocation = create_scheduler(name).allocate(instance)
    verdicts = {
        within or "none": bool(check_pareto_efficiency(allocation, within=within).satisfied)
        for within in (None, "envy_free", "equal_throughput")
    }
    constraint = scheduler_info(name).efficiency_constraint
    verdicts["oe"] = bool(check_optimal_efficiency(allocation, constraint).satisfied)
    return verdicts


def _quota(fleet) -> List[object]:
    from repro.fleet.rebalance import compute_quota_schedule

    return [
        [window.index, window.time, list(window.tenants), list(window.shares),
         window.checked, window.pareto_satisfied, window.sharing_incentive_satisfied]
        for window in compute_quota_schedule(fleet).windows
    ]


def build() -> Dict[str, Dict[str, object]]:
    """Every fingerprint of the manifest, keyed as the module docs say."""
    from repro.fleet.library import fleet_scenario_names, make_fleet_scenario
    from repro.scenarios.library import make_scenario, scenario_names

    manifest: Dict[str, Dict[str, object]] = {}
    for name in scenario_names():
        scenario = make_scenario(name)
        for scheduler in replay_schedulers():
            for mode in ("memo", "cold"):
                manifest[f"replay/{name}/{scheduler}/{mode}"] = _replay(
                    scenario, scheduler, cold=mode == "cold"
                )
    for name in fleet_scenario_names():
        fleet = make_fleet_scenario(name)
        for backend in BACKENDS:
            manifest[f"fleet/{name}/{backend}"] = _fleet(fleet, backend)
        manifest[f"quota/{name}"] = {"windows": _quota(fleet)}

    from repro.registry import REGISTRY
    from repro.workloads.generator import random_instance

    for users in ALLOC_USERS:
        for types in ALLOC_TYPES:
            for seed in ALLOC_SEEDS:
                instance = random_instance(users, types, seed=seed)
                for info in REGISTRY:
                    key = f"alloc/{info.name}/{users}x{types}/{seed}"
                    manifest[key] = _allocation(info.name, instance)
                for name in WIRE_SCHEDULERS:
                    key = f"wire/{name}/{users}x{types}/{seed}"
                    manifest[key] = _wire(name, instance)
                for name in PE_SCHEDULERS:
                    key = f"pe/{name}/{users}x{types}/{seed}"
                    manifest[key] = _verdicts(name, instance)

    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import WORKLOADS, worker_inputs

    for workload_name in BENCH_WORKLOADS:
        workload = WORKLOADS[workload_name]
        inputs = worker_inputs(workload, BENCH_SEED, 0, smoke=False)
        if workload.kind == "replay":
            scenario = make_scenario(
                inputs["scenario"], seed=inputs["seed"], rounds=inputs["rounds"],
                **inputs["shape"],
            )
            value = _replay(scenario, "oef-coop", cold=False)
        else:
            fleet = make_fleet_scenario(
                inputs["scenario"], seed=inputs["seed"], regions=inputs["regions"],
                rounds=inputs["rounds"], **inputs["shape"],
            )
            value = _fleet(fleet, "serial")
        manifest[f"bench/{workload_name}"] = value
    return manifest


def compare(
    before: Dict[str, object], after: Dict[str, object]
) -> List[Tuple[str, object, object]]:
    """``(key, before, after)`` for each key that moved or one side lacks."""
    return [
        (key, before.get(key), after.get(key))
        for key in sorted(set(before) | set(after))
        if before.get(key) != after.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="build the manifest into this JSON file")
    action.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), help="list the keys that moved"
    )
    args = parser.parse_args(argv)
    if args.out:
        manifest = build()
        with open(args.out, "w") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{len(manifest)} fingerprints -> {args.out}")
        return 0
    sides = []
    for path in args.compare:
        with open(path) as handle:
            sides.append(json.load(handle))
    moved = compare(*sides)
    for key, before, after in moved:
        print(f"moved {key}: {before} -> {after}")
    print(f"{len(moved)} moved of {len(set(sides[0]) | set(sides[1]))}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
