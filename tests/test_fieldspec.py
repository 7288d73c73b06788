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
from repro.exceptions import SchemaError
from repro.fleet.metrics import FleetMetricsWriter, read_fleet_metrics
from repro.scenarios.runner import ScenarioRoundRecord
from repro.traces import TraceStore

AUDIT, FLEET, TRACE = "repro/audit-v1", "repro/fleetmetrics-v1", "repro/trace-v1"


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


# -- the combinators, one value at a time --------------------------------------
NAN, INF = float("nan"), float("inf")
_ROW = fieldspec.record({"name": fieldspec.text, "p95": fieldspec.number(ge=0)})
_NON_EMPTY = fieldspec.list_of(fieldspec.integer(), non_empty=True)

#: (check, value, path of the rejection or ``None`` when the value passes)
CHECK_CASES = {
    "number:int": (fieldspec.number(), 3, None),
    "number:negative-float": (fieldspec.number(), -2.5, None),
    "number:huge-int": (fieldspec.number(), 10**30, None),
    "number:bool": (fieldspec.number(), True, ""),
    "number:string": (fieldspec.number(), "1", ""),
    "number:null": (fieldspec.number(), None, ""),
    "number:list": (fieldspec.number(), [1], ""),
    "number-ge0:zero": (fieldspec.number(ge=0), 0, None),
    "number-ge0:negative": (fieldspec.number(ge=0), -1e-9, ""),
    "number-ge0:nan": (fieldspec.number(ge=0), NAN, ""),
    "number-ge0:minus-inf": (fieldspec.number(ge=0), -INF, ""),
    "number-gt0:zero": (fieldspec.number(gt=0), 0.0, ""),
    "number-gt0:tiny": (fieldspec.number(gt=0), 1e-12, None),
    "number-gt0:nan": (fieldspec.number(gt=0), NAN, ""),
    "unit:lower-edge": (fieldspec.number(ge=0, le=1), 0, None),
    "unit:upper-edge": (fieldspec.number(ge=0, le=1), 1.0, None),
    "unit:above": (fieldspec.number(ge=0, le=1), 1.0000001, ""),
    "unit:below": (fieldspec.number(ge=0, le=1), -0.1, ""),
    "unit:nan": (fieldspec.number(ge=0, le=1), NAN, ""),
    "unit:inf": (fieldspec.number(ge=0, le=1), INF, ""),
    "integer:zero": (fieldspec.integer(), 0, None),
    "integer:negative": (fieldspec.integer(), -5, None),
    "integer:big": (fieldspec.integer(), 2**70, None),
    "integer:whole-float": (fieldspec.integer(), 2.0, ""),
    "integer:true": (fieldspec.integer(), True, ""),
    "integer:false": (fieldspec.integer(), False, ""),
    "integer:string": (fieldspec.integer(), "3", ""),
    "integer-ge1:zero": (fieldspec.integer(ge=1), 0, ""),
    "integer-ge1:one": (fieldspec.integer(ge=1), 1, None),
    "text:word": (fieldspec.text, "a", None),
    "text:padded": (fieldspec.text, " a ", None),
    "text:empty": (fieldspec.text, "", ""),
    "text:spaces": (fieldspec.text, "  ", ""),
    "text:whitespace": (fieldspec.text, "\t\n", ""),
    "text:int": (fieldspec.text, 7, ""),
    "text:bytes": (fieldspec.text, b"x", ""),
    "const:equal": (fieldspec.const("repro/x-v1"), "repro/x-v1", None),
    "const:other": (fieldspec.const("repro/x-v1"), "repro/x-v2", ""),
    "const:null": (fieldspec.const("repro/x-v1"), None, ""),
    "choice:first": (fieldspec.choice("a", "b"), "a", None),
    "choice:second": (fieldspec.choice("a", "b"), "b", None),
    "choice:outside": (fieldspec.choice("a", "b"), "c", ""),
    "choice:wrapped": (fieldspec.choice("a", "b"), ["a"], ""),
    "bool:true": (fieldspec.instance_of(bool, "a boolean"), True, None),
    "bool:false": (fieldspec.instance_of(bool, "a boolean"), False, None),
    "bool:one": (fieldspec.instance_of(bool, "a boolean"), 1, ""),
    "bool:string": (fieldspec.instance_of(bool, "a boolean"), "true", ""),
    "nullable:null": (fieldspec.nullable(fieldspec.integer()), None, None),
    "nullable:inner": (fieldspec.nullable(fieldspec.integer()), 3, None),
    "nullable:bad-inner": (fieldspec.nullable(fieldspec.integer()), 2.5, ""),
    "list:empty": (fieldspec.list_of(fieldspec.integer()), [], None),
    "list:ints": (fieldspec.list_of(fieldspec.integer()), [1, 2], None),
    "list:bad-item": (fieldspec.list_of(fieldspec.integer()), [1, "x"], "[1]"),
    "list:string": (fieldspec.list_of(fieldspec.text), "ab", ""),
    "list:tuple": (fieldspec.list_of(fieldspec.integer()), (1, 2), ""),
    "list:null": (fieldspec.list_of(fieldspec.integer()), None, ""),
    "non-empty:empty": (_NON_EMPTY, [], ""),
    "non-empty:one": (_NON_EMPTY, [0], None),
    "nested-list": (
        fieldspec.list_of(fieldspec.list_of(fieldspec.integer())),
        [[1], [2, "x"]],
        "[1][1]",
    ),
    "record:ok": (_ROW, {"name": "a", "p95": 1.0}, None),
    "record:extra-key-passes": (_ROW, {"name": "a", "p95": 1.0, "k": 2}, None),
    "record:missing-key": (_ROW, {"name": "a"}, "p95"),
    "record:list": (_ROW, [], ""),
    "record:null": (_ROW, None, ""),
    "record:bad-field": (_ROW, {"name": " ", "p95": 1.0}, "name"),
    "record:closed-unknown-key": (
        fieldspec.record({"a": fieldspec.integer()}, closed=True),
        {"a": 1, "b": 2},
        "",
    ),
    "record:closed-ok": (
        fieldspec.record({"a": fieldspec.integer()}, closed=True),
        {"a": 1},
        None,
    ),
    "record:optional-absent": (
        fieldspec.record({"a": fieldspec.integer()}, optional=("a",)),
        {},
        None,
    ),
    "record:optional-null": (
        fieldspec.record({"a": fieldspec.integer()}, optional=("a",)),
        {"a": None},
        "a",
    ),
    "record:nullable-absent": (
        fieldspec.record({"a": fieldspec.nullable(fieldspec.integer())}),
        {},
        None,
    ),
    "record:rows-nan": (
        fieldspec.record({"rows": fieldspec.list_of(_ROW)}),
        {"rows": [{"name": "a", "p95": 1.0}, {"name": "b", "p95": NAN}]},
        "rows[1].p95",
    ),
    "record:nested-record": (
        fieldspec.record({"r": fieldspec.record({"x": fieldspec.text})}),
        {"r": {"x": ""}},
        "r.x",
    ),
}


@pytest.mark.parametrize(
    "check, value, failure", list(CHECK_CASES.values()), ids=list(CHECK_CASES)
)
def test_check_accepts_or_rejects_at_its_path(check, value, failure):
    if failure is None:
        check(value)
        return
    with pytest.raises(SchemaError) as excinfo:
        check(value)
    assert excinfo.value.path == failure


@pytest.mark.parametrize(
    "check, value, message",
    [
        (fieldspec.number(ge=0, le=1), 2, "expected a number >= 0 <= 1, got 2"),
        (fieldspec.number(gt=0), NAN, "expected a number > 0, got nan"),
        (fieldspec.integer(ge=1), 0, "expected an integer >= 1, got 0"),
        (fieldspec.integer(), True, "expected an integer, got True"),
        (fieldspec.text, " ", "expected a non-empty string, got ' '"),
        (fieldspec.choice("a", "b"), "c", "expected one of ('a', 'b'), got 'c'"),
        (_NON_EMPTY, [], "expected a non-empty list, got []"),
        (
            fieldspec.record(
                {"b": fieldspec.integer(), "a": fieldspec.text}, closed=True
            ),
            {"a": "x", "b": 1, "d": 0, "c": 0},
            "unknown field(s) c, d (allowed: a, b)",
        ),
    ],
    ids=[
        "bounds", "nan", "integer-bound", "bool", "blank", "choice",
        "non-empty", "closed",
    ],
)
def test_rejection_message_names_what_was_expected(check, value, message):
    with pytest.raises(SchemaError) as excinfo:
        check(value)
    assert excinfo.value.message == message


@pytest.mark.parametrize(
    "path, check, value, where",
    [
        ("", fieldspec.text, "", ""),
        ("field", fieldspec.text, "", "field"),
        ("rows", fieldspec.list_of(fieldspec.text), ["a", ""], "rows[1]"),
        ("run", _ROW, {"name": "a", "p95": -1}, "run.p95"),
        ("a.b", fieldspec.record({"c": fieldspec.text}), {"c": 1}, "a.b.c"),
    ],
    ids=["root", "field", "index", "key", "dotted-prefix"],
)
def test_check_at_prefixes_the_failure_path(path, check, value, where):
    with pytest.raises(SchemaError) as excinfo:
        fieldspec.check_at(path, check, value)
    assert excinfo.value.path == where


class TestRegister:
    @pytest.fixture(autouse=True)
    def _private_specs(self, monkeypatch):
        # registrations here must not leak into the shared registry
        monkeypatch.setattr(fieldspec, "SPECS", dict(fieldspec.SPECS))

    def _register(self, *rules):
        return fieldspec.register(
            "repro/toy-v1",
            {"low": fieldspec.number(), "high": fieldspec.number()},
            *rules,
            optional=("high",),
        )

    def test_validator_returns_the_record_it_was_given(self):
        validate = self._register()
        record = {"schema": "repro/toy-v1", "low": 1}
        assert validate(record) is record
        assert fieldspec.validate("repro/toy-v1", record) is record

    def test_schema_tag_is_enforced(self):
        self._register()
        with pytest.raises(SchemaError) as excinfo:
            fieldspec.validate("repro/toy-v1", {"schema": "repro/toy-v2", "low": 1})
        assert excinfo.value.path == "schema"

    def test_rules_run_after_every_field_passes(self):
        seen = []

        def ordered(value):
            seen.append(value["low"])
            if "high" in value and value["high"] < value["low"]:
                raise SchemaError("high", "must not be below low")

        self._register(ordered)
        with pytest.raises(SchemaError) as excinfo:
            fieldspec.validate("repro/toy-v1", {"schema": "repro/toy-v1", "low": "x"})
        assert excinfo.value.path == "low" and seen == []
        with pytest.raises(SchemaError, match="must not be below low"):
            fieldspec.validate(
                "repro/toy-v1", {"schema": "repro/toy-v1", "low": 2, "high": 1}
            )
        assert seen == [2]

    def test_unknown_tag_is_a_key_error(self):
        with pytest.raises(KeyError):
            fieldspec.validate("repro/never-registered-v1", {})
