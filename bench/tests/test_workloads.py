"""Inputs are a function of the seed, and of nothing else."""

import json

from workloads import WORKLOADS, request_order, serve_bodies, worker_inputs


def test_same_seed_same_request_corpus():
    for name in ("serve-hot", "serve-miss"):
        workload = WORKLOADS[name]
        first = serve_bodies(workload, 7, smoke=True)
        assert first == serve_bodies(workload, 7, smoke=True)
        assert first != serve_bodies(workload, 8, smoke=True)
        assert len(set(first)) == len(first), "bodies must be distinct instances"
    miss = [json.loads(body)["scheduler"] for body in serve_bodies(
        WORKLOADS["serve-miss"], 7, smoke=True)]
    assert miss[:4] == ["oef-coop", "oef-coop", "oef-noncoop", "oef-coop"]


def test_request_order_is_seeded_and_covers_the_pool():
    order = request_order(130, 64, seed=3)
    assert order == request_order(130, 64, seed=3) != request_order(130, 64, seed=4)
    assert sorted(order[:64]) == list(range(64))


def test_same_seed_same_scenario_fingerprints():
    from repro.fleet.library import make_fleet_scenario
    from repro.scenarios import make_scenario

    for name in ("replay-steady", "replay-churn"):
        prints = []
        for seed in (5, 5, 6):
            inputs = worker_inputs(WORKLOADS[name], seed, segment=1, smoke=True)
            scenario = make_scenario(inputs["scenario"], seed=inputs["seed"],
                                     rounds=inputs["rounds"], **inputs["shape"])
            prints.append(scenario.materialize().fingerprint())
        assert prints[0] == prints[1] != prints[2]
    inputs = worker_inputs(WORKLOADS["fleet-failover"], 5, segment=0, smoke=True)
    assert inputs == worker_inputs(WORKLOADS["fleet-failover"], 5, segment=0, smoke=True)
    fleet = make_fleet_scenario(inputs["scenario"], seed=inputs["seed"],
                                regions=inputs["regions"], rounds=inputs["rounds"],
                                **inputs["shape"])
    assert fleet.seed == inputs["seed"]


def test_segments_solve_instances_of_their_own():
    workload = WORKLOADS["solve-fig10"]
    first = worker_inputs(workload, 2, segment=0, smoke=True)
    second = worker_inputs(workload, 2, segment=1, smoke=True)
    assert first == worker_inputs(workload, 2, segment=0, smoke=True)
    both = first["instances"] + second["instances"]
    assert len({json.dumps(raw, sort_keys=True) for raw in both}) == len(both)
