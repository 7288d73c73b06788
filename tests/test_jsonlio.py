"""The shared JSONL primitives both ledgers and the fleet sink ride on."""

from __future__ import annotations

import os

import pytest

from repro import jsonlio
from repro.exceptions import SchemaError
from repro.jsonlio import (
    append_jsonl_lines,
    dump_line,
    list_streams,
    read_jsonl,
    safe_filename,
)


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

    def test_shared_module_backs_both_ledgers(self):
        """The dedup satellite: both ledgers import the shared helpers."""
        import repro.auditor.ledger as audit_ledger
        import repro.benchledger.ledger as bench_ledger

        assert bench_ledger.jsonlio is jsonlio
        assert audit_ledger.jsonlio is jsonlio
