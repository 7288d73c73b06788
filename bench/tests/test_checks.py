"""The output checks catch a wrong answer, and the command then fails.

The deliberately broken check: ``test_command_exits_non_zero...`` hands the
command a worker report in which one timed repeat returned another
fingerprint than the warm-up of the same recipe — a non-deterministic
program — and expects ``failed > 0``, ``correct: false`` and exit code 1.
"""

import json

import run
import serve
from workloads import WORKLOADS, serve_bodies


def _repeat(fingerprint, failed=0):
    return {"wall_s": 0.5, "ops": 10, "latency_s": 0.5, "scale": 1.0, "failed": failed,
            "check": {"fingerprint": fingerprint}, "counts": {}}


def _report(*repeats):
    return {"setup_s": 1.0, "setup_reference_s": 0.01, "peak_rss_mb": 50.0,
            "warmup": _repeat("aa"), "repeats": list(repeats)}


def test_fingerprints_must_agree_within_a_segment():
    good = {"warmup": _repeat("aa"), "repeats": [_repeat("aa"), _repeat("aa")]}
    bad = {"warmup": _repeat("aa"), "repeats": [_repeat("aa"), _repeat("bb")]}
    assert run.determinism_problems("replay", [good, good]) == []
    assert len(run.determinism_problems("fleet", [good, bad])) == 1


def test_objectives_must_agree_across_repeats_to_1e_9():
    def segment(coop):
        return {"warmup": {"check": {"objectives": [2.0, 1.0]}},
                "repeats": [{"check": {"objectives": [coop, 1.0]}}]}

    assert run.determinism_problems("solve", [segment(2.0), segment(2.0 + 1e-12)]) == []
    assert len(run.determinism_problems("solve", [segment(2.0), segment(2.0 + 1e-6)])) == 1


def test_a_tampered_response_body_is_caught():
    from repro.gateway import Gateway
    from repro.server.protocol import json_bytes, parse_json, parse_solve, response_payload

    bodies = serve_bodies(WORKLOADS["serve-hot"], 1, smoke=True)[:2]
    gateway = Gateway()
    served = {
        index: json_bytes(response_payload(
            gateway.solve(parse_solve(parse_json(body), gateway.registry))))
        for index, body in enumerate(bodies)
    }
    assert serve.check_responses(bodies, served) == []
    payload = json.loads(served[1])
    payload["allocation"]["matrix"][0][0] += 0.25
    served[1] = json_bytes(payload)
    problems = serve.check_responses(bodies, served)
    assert problems == ["body 1: server response differs from direct dispatch"]


def test_command_exits_non_zero_when_the_program_is_not_deterministic(
    monkeypatch, capsys
):
    def lying_worker(kind, inputs, seconds, trace, spans_path=None):
        return _report(_repeat("aa"), _repeat("bb"))

    monkeypatch.setattr(run, "run_worker", lying_worker)
    code = run.main(["--workload", "replay-steady", "--smoke", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_a_failed_operation_counts_against_the_attempted(monkeypatch, capsys):
    def unfair_worker(kind, inputs, seconds, trace, spans_path=None):
        return _report(_repeat("aa", failed=2), _repeat("aa"))

    monkeypatch.setattr(run, "run_worker", unfair_worker)
    assert run.main(["--workload", "fleet-failover", "--smoke", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == 2 and result["attempted"] >= 20
