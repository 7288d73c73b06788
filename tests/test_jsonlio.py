"""The shared JSONL primitives the audit ledger, the trace store and the
fleet sink ride on."""

from __future__ import annotations

import importlib
import json
import os
import threading

import pytest

from repro import jsonlio
from repro.auditor import AuditLedger
from repro.exceptions import SchemaError
from repro.jsonlio import (
    append_jsonl_lines,
    dump_line,
    list_streams,
    read_jsonl,
    safe_filename,
)
from repro.traces import TraceStore


class TestSafeFilename:
    def test_passes_clean_names_through(self):
        assert safe_filename("fleet-v1.run_3") == "fleet-v1.run_3.jsonl"

    def test_replaces_hostile_characters(self):
        assert safe_filename("a/b\\c d") == "a_b_c_d.jsonl"

    def test_custom_suffix(self):
        assert safe_filename("x", suffix=".log") == "x.log"


class TestAppendRead:
    def test_roundtrip_single_lines(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        append_jsonl_lines(path, [{"b": 2, "a": 1}])
        append_jsonl_lines(path, [{"c": 3}])
        assert read_jsonl(path) == [{"a": 1, "b": 2}, {"c": 3}]

    def test_batch_append_is_one_write(self, tmp_path):
        path = str(tmp_path / "batch.jsonl")
        wrote = append_jsonl_lines(path, [{"i": i} for i in range(5)])
        assert wrote == 5
        assert [r["i"] for r in read_jsonl(path)] == list(range(5))

    def test_empty_batch_touches_nothing(self, tmp_path):
        path = str(tmp_path / "none.jsonl")
        assert append_jsonl_lines(path, []) == 0
        assert not os.path.exists(path)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "absent.jsonl")) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_jsonl(str(path)) == [{"a": 1}, {"b": 2}]

    def test_sorted_keys_in_output(self, tmp_path):
        line = dump_line({"z": 1, "a": 2}).decode()
        assert line.index('"a"') < line.index('"z"')

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "er" / "s.jsonl")
        append_jsonl_lines(path, [{"ok": True}])
        assert read_jsonl(path) == [{"ok": True}]


class TestErrors:
    def test_corrupt_line_reports_path_and_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(SchemaError, match=rf"{path.name}:2: not valid JSON"):
            read_jsonl(str(path))

    def test_schema_failures_carry_location(self, tmp_path):
        from repro.traces import TRACE_SCHEMA

        path = tmp_path / "invalid.jsonl"
        path.write_text('{"schema": "repro/trace-v1", "job_id": "j1"}\n')
        with pytest.raises(SchemaError, match=rf"{path.name}:1: tenant: ") as exc:
            read_jsonl(str(path), TRACE_SCHEMA)
        assert exc.value.path == f"{path}:1"


class TestListStreams:
    def test_lists_stems_sorted(self, tmp_path):
        for name in ("b", "a", "c"):
            append_jsonl_lines(str(tmp_path / f"{name}.jsonl"), [{}])
        (tmp_path / "notes.txt").write_text("ignored")
        assert list_streams(str(tmp_path)) == ["a", "b", "c"]

    def test_missing_root_is_empty(self, tmp_path):
        assert list_streams(str(tmp_path / "nope")) == []

    def test_shared_module_backs_every_store(self):
        """The audit ledger, the trace store and the fleet metrics writer
        all import the one shared module."""
        import repro.auditor.ledger as audit_ledger
        import repro.fleet.metrics as fleet_metrics
        import repro.traces.store as trace_store

        assert audit_ledger.jsonlio is jsonlio
        assert trace_store.jsonlio is jsonlio
        assert fleet_metrics.jsonlio is jsonlio
        assert issubclass(audit_ledger.AuditLedger, jsonlio.JsonlStore)
        assert issubclass(trace_store.TraceStore, jsonlio.JsonlStore)


#: store class -> (module whose docstring holds its example record, its
#: schema tag, a numeric field that tells entries apart)
STORES = {
    "audit": (AuditLedger, "repro.auditor.schema", "repro/audit-v1", "elapsed_s"),
    "trace": (TraceStore, "repro.traces.store", "repro/trace-v1", "submit_s"),
}


def _example(module, tag):
    doc = importlib.import_module(module).__doc__
    record, _end = json.JSONDecoder().raw_decode(
        doc, doc.index('{"schema": "%s"' % tag)
    )
    return record


@pytest.mark.parametrize("kind", sorted(STORES))
class TestJsonlStore:
    """The :class:`JsonlStore` contract, on every store built from it."""

    def _store(self, kind, root):
        cls, module, tag, field = STORES[kind]
        return cls(str(root)), _example(module, tag), field

    def _entries(self, example, field, count):
        return [{**example, field: float(i)} for i in range(count)]

    def test_schema_is_the_stores_own_tag(self, kind, tmp_path):
        store, example, _field = self._store(kind, tmp_path)
        assert store.SCHEMA == example["schema"]
        other = [v for k, v in sorted(STORES.items()) if k != kind][0]
        with pytest.raises(SchemaError):
            store.append_entry("s", _example(other[1], other[2]))

    def test_append_returns_a_copy_that_reads_back(self, kind, tmp_path):
        store, example, _field = self._store(kind, tmp_path)
        stored = store.append_entry("s", example)
        assert stored == example and stored is not example
        assert store.read("s") == [example]

    def test_reads_back_in_append_order(self, kind, tmp_path):
        store, example, field = self._store(kind, tmp_path)
        entries = self._entries(example, field, 5)
        for entry in entries:
            store.append_entry("s", entry)
        assert [e[field] for e in store.read("s")] == [e[field] for e in entries]

    def test_one_canonical_line_per_entry(self, kind, tmp_path):
        store, example, field = self._store(kind, tmp_path)
        entries = self._entries(example, field, 2)
        for entry in entries:
            store.append_entry("s", entry)
        with open(store.path_for("s"), "rb") as handle:
            assert handle.read() == b"".join(dump_line(e) for e in entries)

    def test_names_are_the_sorted_stream_stems(self, kind, tmp_path):
        store, example, _field = self._store(kind, tmp_path)
        for name in ("b", "c", "a"):
            store.append_entry(name, example)
        (tmp_path / "notes.txt").write_text("not a stream")
        assert store.names() == ["a", "b", "c"]

    def test_read_all_concatenates_streams_in_name_order(self, kind, tmp_path):
        store, example, field = self._store(kind, tmp_path)
        store.append_entry("b", {**example, field: 2.0})
        store.append_entry("a", {**example, field: 1.0})
        store.append_entry("b", {**example, field: 3.0})
        assert [e[field] for e in store.read_all()] == [1.0, 2.0, 3.0]

    def test_hostile_names_stay_inside_the_root(self, kind, tmp_path):
        store, example, _field = self._store(kind, tmp_path)
        path = store.path_for("../up/and away")
        assert os.path.dirname(path) == str(tmp_path)
        store.append_entry("../up/and away", example)
        assert store.names() == [".._up_and_away"]

    def test_invalid_entry_leaves_no_file(self, kind, tmp_path):
        store, example, field = self._store(kind, tmp_path)
        with pytest.raises(SchemaError) as excinfo:
            store.append_entry("s", {**example, field: "soon"})
        assert excinfo.value.path == field
        assert not os.path.exists(store.path_for("s"))

    def test_missing_stream_reads_empty_and_creates_nothing(self, kind, tmp_path):
        store, _example_record, _field = self._store(kind, tmp_path / "absent")
        assert store.read("s") == []
        assert store.names() == [] and store.read_all() == []
        assert not (tmp_path / "absent").exists()

    def test_blank_lines_are_tolerated(self, kind, tmp_path):
        store, example, _field = self._store(kind, tmp_path)
        store.append_entry("s", example)
        with open(store.path_for("s"), "a", encoding="utf-8") as handle:
            handle.write("\n   \n")
        store.append_entry("s", example)
        assert store.read("s") == [example, example]

    def test_concurrent_appenders_interleave_whole_lines(self, kind, tmp_path):
        store, example, field = self._store(kind, tmp_path)

        def writer(offset):
            for i in range(10):
                store.append_entry("s", {**example, field: float(offset + i)})

        threads = [threading.Thread(target=writer, args=(k * 100,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        values = sorted(e[field] for e in store.read("s"))
        assert values == sorted(float(k * 100 + i) for k in range(4) for i in range(10))

    def test_default_env_names_the_root(self, kind, tmp_path, monkeypatch):
        cls = STORES[kind][0]
        monkeypatch.setenv(cls.DIR_ENV, str(tmp_path))
        store = cls.default()
        assert isinstance(store, cls) and store.root == str(tmp_path)

    def test_default_empty_env_disables_discovery(self, kind, monkeypatch):
        cls = STORES[kind][0]
        monkeypatch.setenv(cls.DIR_ENV, "")
        assert cls.default() is None

    def test_default_unset_env_falls_back_to_default_dir(self, kind, monkeypatch):
        cls = STORES[kind][0]
        monkeypatch.delenv(cls.DIR_ENV, raising=False)
        store = cls.default()
        if cls.DEFAULT_DIR is None:
            assert store is None
        else:
            assert isinstance(store, cls) and store.root == cls.DEFAULT_DIR
