"""The artifact store: run ids, atomic appends, validated reads, resolve."""

import json
import os

import pytest

from repro.benchledger import (
    BaselineNotFound,
    BenchLedger,
    Manifest,
    parse_run_id,
)
from repro.benchledger.ledger import LEDGER_DIR_ENV
from repro.benchledger.run_id import format_run_id, is_run_id, next_sequence
from repro.exceptions import SchemaError


class TestRunIds:
    def test_round_trip(self):
        run_id = format_run_id("a" * 40, "b" * 64, 7)
        parsed = parse_run_id(run_id)
        assert parsed.sha == "a" * 12
        assert parsed.manifest == "b" * 10
        assert parsed.sequence == 7
        assert str(parsed) == run_id

    def test_unknown_sha_supported(self):
        run_id = format_run_id("unknown", "c" * 64, 1)
        assert run_id.startswith("unknown-")
        assert is_run_id(run_id)

    def test_sequence_starts_at_one(self):
        with pytest.raises(ValueError):
            format_run_id("a" * 40, "b" * 64, 0)

    @pytest.mark.parametrize(
        "bad", ["", "latest", "main", "deadbeef", "a-b-c", "x" * 12 + "-y-1"]
    )
    def test_non_ids_rejected(self, bad):
        assert not is_run_id(bad)
        with pytest.raises(ValueError):
            parse_run_id(bad)

    def test_next_sequence_scoped_to_sha_and_manifest(self):
        ids = [
            format_run_id("a" * 40, "b" * 64, 1),
            format_run_id("a" * 40, "b" * 64, 5),
            format_run_id("f" * 40, "b" * 64, 9),  # other commit
            "garbage-line",  # malformed ids are skipped, not fatal
        ]
        assert next_sequence(ids, "a" * 40, "b" * 64) == 6
        assert next_sequence(ids, "0" * 40, "b" * 64) == 1


class TestAppend:
    def test_append_assigns_monotonic_sequences(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        first = ledger.append(record_factory())
        second = ledger.append(record_factory())
        assert parse_run_id(str(first["run_id"])).sequence == 1
        assert parse_run_id(str(second["run_id"])).sequence == 2

    def test_shared_run_id_groups_families(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        gateway = record_factory("gateway")
        run_id = ledger.begin_run(Manifest.from_record(gateway))
        ledger.append(gateway, run_id=run_id)
        ledger.append(record_factory("parallel"), run_id=run_id)
        entries = ledger.entries_for_run(run_id)
        assert {e["family"] for e in entries} == {"gateway", "parallel"}
        assert ledger.families() == ["gateway", "parallel"]

    def test_one_line_per_entry(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        ledger.append(record_factory())
        ledger.append(record_factory())
        lines = (tmp_path / "gateway.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line)["schema"] == "repro/ledger-v1"

    def test_family_names_sanitized_for_filesystem(
        self, tmp_path, record_factory
    ):
        ledger = BenchLedger(str(tmp_path))
        ledger.append(record_factory("fig7/fig8"))
        assert os.path.exists(tmp_path / "fig7_fig8.jsonl")

    def test_malformed_record_never_enters_ledger(self, tmp_path):
        ledger = BenchLedger(str(tmp_path))
        with pytest.raises(SchemaError):
            ledger.append({"schema": "repro/bench-v1", "rows": []})
        assert ledger.families() == []

    def test_config_lands_in_manifest(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        entry = ledger.append(
            record_factory(), config={"source": "unit-test", "repeat": 2}
        )
        assert entry["manifest"]["config"] == {
            "source": "unit-test",
            "repeat": 2,
        }


class TestRead:
    def test_entries_validated_on_read(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        ledger.append(record_factory())
        path = tmp_path / "gateway.jsonl"
        with open(path, "a") as handle:
            handle.write('{"schema": "repro/ledger-v1", "run_id": ""}\n')
        with pytest.raises(SchemaError, match=r"gateway\.jsonl:2"):
            ledger.entries("gateway")

    def test_corrupt_json_named_with_line_number(
        self, tmp_path, record_factory
    ):
        ledger = BenchLedger(str(tmp_path))
        ledger.append(record_factory())
        with open(tmp_path / "gateway.jsonl", "a") as handle:
            handle.write("{half a line\n")
        with pytest.raises(SchemaError, match="not valid JSON"):
            ledger.entries("gateway")

    def test_blank_lines_tolerated(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        ledger.append(record_factory())
        with open(tmp_path / "gateway.jsonl", "a") as handle:
            handle.write("\n\n")
        assert len(ledger.entries("gateway")) == 1

    def test_missing_family_is_empty(self, tmp_path):
        assert BenchLedger(str(tmp_path)).entries("nope") == []

    def test_runs_ordered_by_record_timestamp(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        old = ledger.append(record_factory(created_unix=1_000.0))
        new = ledger.append(record_factory(created_unix=2_000.0))
        assert list(ledger.runs()) == [old["run_id"], new["run_id"]]


class TestResolve:
    def test_latest_excludes_the_current_run(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        base = ledger.append(record_factory())
        current = ledger.append(record_factory())
        assert (
            ledger.resolve_base("latest", exclude=str(current["run_id"]))
            == base["run_id"]
        )

    def test_empty_ledger_has_no_baseline(self, tmp_path):
        with pytest.raises(BaselineNotFound, match="no prior runs"):
            BenchLedger(str(tmp_path)).resolve_base("latest")

    def test_missing_run_id_is_a_clean_error(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        ledger.append(record_factory())
        ghost = format_run_id("e" * 40, "f" * 64, 1)
        with pytest.raises(BaselineNotFound, match="not in the ledger"):
            ledger.resolve_base(ghost)

    def test_explicit_run_id_resolves(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        entry = ledger.append(record_factory())
        assert ledger.resolve_base(str(entry["run_id"])) == entry["run_id"]

    def test_git_sha_prefix_selects_newest_run_at_commit(
        self, tmp_path, record_factory
    ):
        ledger = BenchLedger(str(tmp_path))
        ledger.append(record_factory(git_sha="a" * 40, created_unix=1.0))
        newer = ledger.append(
            record_factory(git_sha="a" * 40, created_unix=2.0)
        )
        ledger.append(record_factory(git_sha="b" * 40, created_unix=3.0))
        assert ledger.resolve_base("a" * 12) == newer["run_id"]

    def test_unresolvable_ref_is_a_clean_error(self, tmp_path, record_factory):
        ledger = BenchLedger(str(tmp_path))
        ledger.append(record_factory())
        with pytest.raises(BaselineNotFound):
            ledger.resolve_base("no-such-branch-name")


class TestDefaultDiscovery:
    def test_env_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path / "custom"))
        ledger = BenchLedger.default()
        assert ledger is not None and ledger.root == str(tmp_path / "custom")

    def test_empty_env_disables(self, monkeypatch):
        monkeypatch.setenv(LEDGER_DIR_ENV, "")
        assert BenchLedger.default() is None

    def test_repo_checkout_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LEDGER_DIR_ENV, raising=False)
        (tmp_path / "benchmarks").mkdir()
        monkeypatch.chdir(tmp_path)
        ledger = BenchLedger.default()
        assert ledger is not None
        assert ledger.root == os.path.join("benchmarks", "ledger")
