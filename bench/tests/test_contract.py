"""``BENCHMARK.json`` obeys the driver's limits and names what the code emits."""

import json
import os
import re

from conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_shape_and_limits():
    spec = _declared()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    # 4 + 22 runs per workload, each run_seconds plus three set-ups, inside 3420 s
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_names_and_units_are_well_formed_and_unique():
    spec = _declared()
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")


def test_workloads_match_the_code():
    from workloads import WORKLOADS

    # the driver's time budget fits five: the bare solver is run by the
    # all-workload mode only
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] + ["solve-fig10"] == list(WORKLOADS)


def test_every_span_derived_metric_is_declared():
    import layers
    import serve

    declared = {metric["name"] for metric in _declared()["per_layer"]}
    emitted = set(layers.TIME_METRICS) | {
        f"gateway.stage.{stage}_us" for stage in serve.STAGES
    }
    assert emitted <= declared
