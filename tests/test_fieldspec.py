"""The record-layer contract, once for every schema tag in the registry.

Each family's module docstring carries one example record.  For every
registered tag: the example validates and round-trips append -> read
through the family's store; every field rejects a wrong type and an
out-of-range value with a ``SchemaError`` whose ``.path`` names it;
and a corrupt or torn stored line is reported at ``file:lineno``.
"""

from __future__ import annotations

import copy
import importlib
import json

import pytest

from repro import fieldspec
from repro.auditor import AuditLedger
from repro.benchledger import BenchLedger
from repro.exceptions import SchemaError
from repro.fleet.metrics import FleetMetricsWriter, read_fleet_metrics
from repro.scenarios.runner import ScenarioRoundRecord
from repro.traces import TraceStore

BENCH, LEDGER = "repro/bench-v1", "repro/ledger-v1"
AUDIT, FLEET, TRACE = "repro/audit-v1", "repro/fleetmetrics-v1", "repro/trace-v1"


def _bench(tmp, example):
    ledger = BenchLedger(str(tmp))
    family = str(example["benchmark"])
    return (
        ledger.path_for(family),
        lambda: ledger.append(example),
        lambda: [entry["record"] for entry in ledger.entries(family)],
    )


def _ledger(tmp, example):
    ledger = BenchLedger(str(tmp))
    family = str(example["family"])
    return (
        ledger.path_for(family),
        lambda: ledger.append_entry(family, example),
        lambda: ledger.entries(family),
    )


def _audit(tmp, example):
    ledger = AuditLedger(str(tmp))
    scenario = str(example["scenario"])
    return (
        ledger.path_for(scenario),
        lambda: ledger.append(example),
        lambda: ledger.records(scenario),
    )


def _fleet(tmp, example):
    # the real sink: it builds (and validates) its own records from the
    # runner's distilled rounds, so only well-typed examples go through
    path = str(tmp / "metrics.jsonl")

    def append():
        writer = FleetMetricsWriter(
            path,
            **{k: example[k] for k in ("fleet", "region", "seed", "scheduler")},
        )
        writer(
            ScenarioRoundRecord(
                round_index=example["round"],
                **{
                    k: example[k]
                    for k in (
                        "time", "active_tenants", "total_throughput",
                        "utilization", "jain", "envy", "starved_jobs",
                    )
                },
            )
        )
        writer.close()

    return path, append, lambda: read_fleet_metrics(path)


def _trace(tmp, example):
    store = TraceStore(str(tmp))
    return (
        store.path_for("ops"),
        lambda: store.save("ops", [example]),
        lambda: store.load("ops"),
    )


#: tag -> (module whose docstring holds the example, its store, the
#: example's pass-through leaves, out-of-range values by path, closed
#: sub-records by path)
CONTRACTS = {
    BENCH: (
        "repro.benchledger.schema",
        _bench,
        {"meta.instances", "rows[0].speedup_vs_bare"},
        {"rows[0].mean": -1.0, "rows[0].p95": float("nan"), "rows[0].samples": -1},
        (),
    ),
    LEDGER: (
        "repro.benchledger.schema",
        _ledger,
        {"manifest.config"},
        {"record.rows[0].p50": -0.5},
        (),
    ),
    AUDIT: (
        "repro.auditor.schema",
        _audit,
        set(),
        {"elapsed_s": -0.1, "verdict": "maybe", "properties.SI": "perhaps"},
        ("properties",),
    ),
    FLEET: (
        "repro.fleet.schema",
        _fleet,
        set(),
        {
            "round": -1,
            "time": -1.0,
            "active_tenants": -1,
            "total_throughput": -0.5,
            "utilization": -0.1,
            "jain": 1.5,
            "envy": -0.1,
            "starved_jobs": -1,
        },
        (),
    ),
    TRACE: (
        "repro.traces.store",
        _trace,
        set(),
        {"submit_s": -1.0, "duration_s": 0, "num_workers": 0},
        (),
    ),
}


def _example(tag):
    """The first ``{"schema": "<tag>" ...}`` literal in the module docstring."""
    doc = importlib.import_module(CONTRACTS[tag][0]).__doc__
    record, _end = json.JSONDecoder().raw_decode(
        doc, doc.index('{"schema": "%s"' % tag)
    )
    return record


def _leaves(value, path="", keys=()):
    """``(path, keys, node)`` below the root, containers included."""
    if isinstance(value, dict):
        children = [(f"{path}.{k}" if path else k, k) for k in value]
    elif isinstance(value, list):
        children = [(f"{path}[{i}]", i) for i in range(len(value))]
    else:
        return
    for child_path, key in children:
        yield child_path, keys + (key,), value[key]
        yield from _leaves(value[key], child_path, keys + (key,))


def _with(record, keys, value):
    mutated = copy.deepcopy(record)
    node = mutated
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return mutated


def _field_cases():
    for tag, (_module, _store, free, out_of_range, closed) in CONTRACTS.items():
        example = _example(tag)
        nodes = list(_leaves(example))
        paths = {path: keys for path, keys, _node in nodes}
        for path, keys, current in nodes:
            if any(path == f or path.startswith(f + ".") for f in free):
                continue
            wrong_type = 7 if isinstance(current, (str, type(None))) else "x"
            yield pytest.param(tag, path, keys, wrong_type, id=f"{tag}:{path}:type")
            if isinstance(current, str):
                yield pytest.param(tag, path, keys, "  ", id=f"{tag}:{path}:blank")
        for path, bad in out_of_range.items():
            yield pytest.param(tag, path, paths[path], bad, id=f"{tag}:{path}:range")
        for path in closed:
            yield pytest.param(
                tag, path, paths[path] + ("karma",), "yes", id=f"{tag}:{path}:closed"
            )


def test_every_registered_tag_has_a_contract():
    assert sorted(fieldspec.SPECS) == sorted(CONTRACTS)


@pytest.mark.parametrize("tag", sorted(CONTRACTS))
class TestPerTag:
    def test_docstring_example_validates_and_round_trips(self, tag, tmp_path):
        example = _example(tag)
        assert fieldspec.validate(tag, example) is example
        _path, append, read = CONTRACTS[tag][1](tmp_path, example)
        append()
        assert read() == [example]

    @pytest.mark.parametrize(
        "bad_line, lineno", [("not json\n", 2), ('{"schema": "repro/', 3)],
        ids=["corrupt-middle-line", "torn-last-line"],
    )
    def test_bad_stored_line_names_file_and_lineno(
        self, tag, tmp_path, bad_line, lineno
    ):
        path, append, read = CONTRACTS[tag][1](tmp_path, _example(tag))
        append()
        with open(path, encoding="utf-8") as handle:
            good = handle.read()
        lines = [good, bad_line, good] if lineno == 2 else [good, good, bad_line]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(SchemaError, match="not valid JSON") as excinfo:
            read()
        assert excinfo.value.path == f"{path}:{lineno}"

    def test_invalid_stored_line_names_file_lineno_and_field(self, tag, tmp_path):
        path, append, read = CONTRACTS[tag][1](tmp_path, _example(tag))
        append()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro/other-v1"}\n')
        with pytest.raises(SchemaError, match=r":2: schema: expected") as excinfo:
            read()
        assert excinfo.value.path == f"{path}:2"


@pytest.mark.parametrize("tag, path, keys, bad", list(_field_cases()))
def test_bad_field_is_rejected_at_its_path(tag, path, keys, bad, tmp_path):
    example = _example(tag)
    mutated = _with(example, keys, bad)
    with pytest.raises(SchemaError) as excinfo:
        fieldspec.validate(tag, mutated)
    # (an unknown key is reported on the closed record that holds it)
    assert excinfo.value.path == path
    assert str(excinfo.value).startswith(f"{path}: ")
    if tag != FLEET:  # ...and the store refuses it before any byte lands
        _stream, append, _read = CONTRACTS[tag][1](tmp_path, mutated)
        with pytest.raises(SchemaError):
            append()
        assert not list(tmp_path.iterdir())
