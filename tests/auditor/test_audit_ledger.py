"""The append-only audit ledger: durability, validation, discovery."""

import json
import os

import pytest

from repro.auditor.ledger import AUDIT_DIR_ENV, AuditLedger
from repro.auditor.schema import AUDIT_SCHEMA
from repro.exceptions import SchemaError


def _record(scenario="steady", scheduler="oef-coop", verdict="pass", **extra):
    record = {
        "schema": AUDIT_SCHEMA,
        "created_unix": 1722300000.0,
        "scenario": scenario,
        "scheduler": scheduler,
        "fingerprint": "abc123",
        "seed": 7,
        "verdict": verdict,
        "properties": {
            "PE": "yes",
            "EF": "yes",
            "SI": "yes",
            "SP": "no",
            "optimal efficiency": "yes",
        },
        "violations": ["EF"] if verdict == "fail" else [],
        "elapsed_s": 0.01,
        "error": "RuntimeError: boom" if verdict == "error" else None,
    }
    record.update(extra)
    return record


class TestAppendAndRead:
    def test_round_trip_preserves_append_order(self, tmp_path):
        ledger = AuditLedger(str(tmp_path / "audit"))
        first = ledger.append(_record(fingerprint="a"))
        second = ledger.append(_record(fingerprint="b", verdict="fail"))
        records = ledger.records("steady")
        assert [r["fingerprint"] for r in records] == ["a", "b"]
        assert records[0] == first
        assert records[1] == second

    def test_one_stream_per_scenario(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        ledger.append(_record(scenario="steady"))
        ledger.append(_record(scenario="tenant-churn"))
        assert ledger.scenarios() == ["steady", "tenant-churn"]
        assert os.path.exists(ledger.path_for("tenant-churn"))
        assert len(ledger.all_records()) == 2

    def test_scenario_names_are_sanitized_into_filenames(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        ledger.append(_record(scenario="burst/spike run"))
        assert os.path.basename(
            ledger.path_for("burst/spike run")
        ) == "burst_spike_run.jsonl"
        assert ledger.records("burst/spike run")

    def test_missing_stream_reads_empty(self, tmp_path):
        ledger = AuditLedger(str(tmp_path / "nowhere"))
        assert ledger.records("steady") == []
        assert ledger.scenarios() == []
        assert ledger.all_records() == []

    def test_append_rejects_invalid_records(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        with pytest.raises(Exception):
            ledger.append(_record(verdict="maybe"))
        assert ledger.scenarios() == []  # nothing was written


class TestCorruption:
    def test_corrupt_json_line_reports_path_and_lineno(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        ledger.append(_record())
        path = ledger.path_for("steady")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(SchemaError, match=rf"{path}:2: "):
            ledger.records("steady")

    def test_schema_violating_line_reports_path_and_lineno(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        bad = _record()
        bad["verdict"] = "maybe"
        os.makedirs(str(tmp_path), exist_ok=True)
        path = ledger.path_for("steady")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(_record()) + "\n")
            handle.write(json.dumps(bad) + "\n")
        with pytest.raises(SchemaError, match=rf"{path}:2: verdict"):
            ledger.records("steady")

    def test_blank_lines_are_tolerated(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        ledger.append(_record())
        with open(ledger.path_for("steady"), "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert len(ledger.records("steady")) == 1


class TestDefaultDiscovery:
    def test_env_var_names_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(AUDIT_DIR_ENV, str(tmp_path / "audits"))
        ledger = AuditLedger.default()
        assert ledger is not None
        assert ledger.root == str(tmp_path / "audits")

    def test_empty_env_var_disables_discovery(self, monkeypatch):
        monkeypatch.setenv(AUDIT_DIR_ENV, "")
        assert AuditLedger.default() is None

    def test_unset_env_var_means_no_default(self, monkeypatch):
        monkeypatch.delenv(AUDIT_DIR_ENV, raising=False)
        assert AuditLedger.default() is None
