"""``run.py --smoke`` end to end: every workload, both trace modes, all checks."""

import json
import os
import subprocess
import sys

from conftest import BENCH, ROOT


def test_smoke_runs_every_workload_and_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(out.read_text())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(document["workloads"]) == sorted(
        [w["name"] for w in spec["workloads"]] + ["solve-fig10"])
    assert document["provenance"]["usable_cores"] >= 1
    measured = set()
    for entry in document["workloads"].values():
        assert all(run["correct"] and run["failed"] == 0 for run in entry["runs"])
        assert set(entry["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        for cell in entry["end_to_end"].values():
            assert all(value > 0 for value in cell["values"])
        for run in entry["runs"]:
            measured |= set(run.get("measured", ()))
    # every declared per-layer metric is measured by at least one workload
    assert measured == {m["name"] for m in spec["per_layer"]}
    shares = {
        name: entry["per_layer"]["trace.core_solver_share"]["values"][0]
        for name, entry in document["workloads"].items()
    }
    assert shares["serve-hot"] < 0.05 and shares["replay-steady"] < 0.10
    assert shares["solve-fig10"] > 0.70


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and bench/: non-zero, no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve-hot", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
