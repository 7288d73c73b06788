"""Benchmark record IO: schema, stats, and run-provenance metadata."""

import json
import re

import pytest

from repro.benchio import (
    OUTPUT_DIR_ENV,
    SCHEMA,
    bench_output_path,
    bench_stats,
    run_metadata,
    write_bench_json,
)


class TestRunMetadata:
    def test_has_every_provenance_field(self):
        meta = run_metadata()
        assert set(meta) == {
            "git_sha", "hostname", "python", "platform", "created_iso",
        }
        assert all(isinstance(value, str) and value for value in meta.values())

    def test_git_sha_is_a_commit_or_unknown(self):
        sha = run_metadata()["git_sha"]
        assert sha == "unknown" or re.fullmatch(r"[0-9a-f]{40}", sha)

    def test_python_version_matches_interpreter(self):
        import platform

        assert run_metadata()["python"] == platform.python_version()

    def test_timestamp_is_utc_iso(self):
        from datetime import datetime

        stamp = run_metadata()["created_iso"]
        parsed = datetime.fromisoformat(stamp)
        assert parsed.tzinfo is not None  # timezone-aware, not naive


class TestWriteBenchJson:
    def test_record_carries_run_block(self, tmp_path):
        path = write_bench_json(
            str(tmp_path / "BENCH_x.json"),
            "x",
            [{"name": "a", "mean": 1.0, "p50": 1.0, "p95": 1.0, "samples": 1}],
            meta={"k": "v"},
        )
        payload = json.loads(open(path).read())
        assert payload["schema"] == SCHEMA
        assert payload["benchmark"] == "x"
        assert payload["meta"] == {"k": "v"}
        assert payload["run"]["python"]  # provenance is stamped in
        assert payload["run"]["git_sha"]
        assert payload["rows"][0]["name"] == "a"

    def test_output_path_prefers_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "artifacts"))
        path = bench_output_path("BENCH_y.json")
        assert path == str(tmp_path / "artifacts" / "BENCH_y.json")
        monkeypatch.delenv(OUTPUT_DIR_ENV)
        assert bench_output_path("BENCH_y.json", str(tmp_path)) == str(
            tmp_path / "BENCH_y.json"
        )


class TestSchemaValidation:
    """Every written ``BENCH_*.json`` is validated against repro/bench-v1."""

    def test_malformed_rows_rejected_at_write_time(self, tmp_path):
        from repro.exceptions import SchemaError

        target = tmp_path / "BENCH_bad.json"
        with pytest.raises(SchemaError, match="p50"):
            write_bench_json(
                str(target), "bad", [{"name": "a", "mean": 1.0, "p95": 1.0}]
            )
        assert not target.exists()  # nothing lands on disk

    def test_row_without_name_rejected(self, tmp_path):
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError, match="name"):
            write_bench_json(
                str(tmp_path / "BENCH_bad.json"),
                "bad",
                [{"mean": 1.0, "p50": 1.0, "p95": 1.0}],
            )

    def test_round_trip_write_read_validate(self, tmp_path):
        from repro.benchledger import validate_record

        path = write_bench_json(
            str(tmp_path / "BENCH_rt.json"),
            "round_trip",
            [
                {
                    "name": "hot",
                    "mean": 0.01,
                    "p50": 0.01,
                    "p95": 0.02,
                    "samples": 5,
                    "speedup_vs_bare_cold": 12.5,
                    "matches_bare": True,
                }
            ],
            meta={"repeat": 5},
        )
        reread = json.loads(open(path).read())
        assert validate_record(reread) is reread
        assert reread["rows"][0]["speedup_vs_bare_cold"] == 12.5
        assert reread["meta"] == {"repeat": 5}

    def test_written_records_tracked_for_the_session(self, tmp_path):
        from repro.benchio import reset_session_records, session_records

        reset_session_records()
        write_bench_json(
            str(tmp_path / "BENCH_a.json"),
            "fam_a",
            [{"name": "x", "mean": 1.0, "p50": 1.0, "p95": 1.0, "samples": 1}],
        )
        records = session_records()
        assert [r["benchmark"] for r in records] == ["fam_a"]
        reset_session_records()
        assert session_records() == []


class TestBenchStats:
    def test_stats_shape(self):
        stats = bench_stats([1.0, 2.0, 3.0])
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["samples"] == 3
        assert stats["p50"] <= stats["p95"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bench_stats([])
