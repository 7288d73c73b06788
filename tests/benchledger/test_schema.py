"""Schema validation: every malformed shape is rejected with a path."""

import pytest

from repro.benchio import build_bench_record
from repro.benchledger import validate_entry, validate_record
from repro.benchledger.schema import validate_row
from repro.exceptions import SchemaError


def _row(**overrides):
    row = {"name": "hot", "mean": 0.1, "p50": 0.1, "p95": 0.2, "samples": 3}
    row.update(overrides)
    return row


class TestValidateRecord:
    def test_built_records_validate(self):
        record = build_bench_record("gateway", [_row()], meta={"k": 1})
        assert validate_record(record) is record

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda r: r.update(schema="repro/bench-v2"), "schema"),
            (lambda r: r.update(benchmark=""), "benchmark"),
            (lambda r: r.update(benchmark=7), "benchmark"),
            (lambda r: r.update(created_unix="now"), "created_unix"),
            (lambda r: r.update(run="provenance"), "run"),
            (lambda r: r["run"].pop("git_sha"), "run.git_sha"),
            (lambda r: r["run"].update(hostname=""), "run.hostname"),
            (lambda r: r.update(meta=[1, 2]), "meta"),
            (lambda r: r.update(rows=[]), "rows"),
            (lambda r: r.update(rows="fast"), "rows"),
            (lambda r: r["rows"][0].pop("name"), "rows[0].name"),
            (lambda r: r["rows"][0].pop("p50"), "rows[0].p50"),
            (lambda r: r["rows"][0].update(mean="quick"), "rows[0].mean"),
            (lambda r: r["rows"][0].update(p95=-1.0), "rows[0].p95"),
            (lambda r: r["rows"][0].update(mean=float("nan")), "rows[0].mean"),
            (lambda r: r["rows"][0].update(mean=True), "rows[0].mean"),
            (lambda r: r["rows"][0].update(samples=2.5), "rows[0].samples"),
        ],
    )
    def test_malformed_records_rejected_with_path(self, mutate, path_fragment):
        record = build_bench_record("gateway", [_row()])
        mutate(record)
        with pytest.raises(SchemaError) as excinfo:
            validate_record(record)
        assert excinfo.value.path == path_fragment
        assert path_fragment in str(excinfo.value)

    def test_duplicate_row_names_rejected(self):
        # raised at build time: build_bench_record validates on assembly
        with pytest.raises(SchemaError, match="duplicate row name"):
            build_bench_record("gateway", [_row(), _row()])

    def test_extra_row_keys_pass_through(self):
        record = build_bench_record(
            "gateway",
            [_row(speedup_vs_bare_cold=44.0, matches_bare=True, note="x")],
        )
        assert validate_record(record) is record

    def test_non_mapping_rejected(self):
        with pytest.raises(SchemaError):
            validate_record(["not", "a", "record"])


class TestValidateRow:
    def test_row_must_be_mapping(self):
        with pytest.raises(SchemaError):
            validate_row("hot", "rows[0]")

    def test_samples_optional_but_typed(self):
        row = _row()
        del row["samples"]
        validate_row(row)  # fine without samples
        with pytest.raises(SchemaError):
            validate_row(_row(samples=True))


class TestValidateEntry:
    def _entry(self, record):
        return {
            "schema": "repro/ledger-v1",
            "run_id": "abcdefabcdef-0123456789-0001",
            "family": record["benchmark"],
            "manifest": {
                "git_sha": record["run"]["git_sha"],
                "hostname": record["run"]["hostname"],
                "python": record["run"]["python"],
                "platform": record["run"]["platform"],
                "config": {},
            },
            "manifest_hash": "0123456789abcdef",
            "record": record,
        }

    def test_valid_entry(self):
        entry = self._entry(build_bench_record("gateway", [_row()]))
        assert validate_entry(entry) is entry

    def test_family_must_match_record_benchmark(self):
        entry = self._entry(build_bench_record("gateway", [_row()]))
        entry["family"] = "warm_start"
        with pytest.raises(SchemaError, match="does not match"):
            validate_entry(entry)

    def test_nested_record_errors_carry_record_prefix(self):
        entry = self._entry(build_bench_record("gateway", [_row()]))
        entry["record"]["rows"][0]["p50"] = "fast"
        with pytest.raises(SchemaError) as excinfo:
            validate_entry(entry)
        assert excinfo.value.path == "record.rows[0].p50"

    @pytest.mark.parametrize(
        "field", ["run_id", "family", "manifest", "manifest_hash"]
    )
    def test_missing_envelope_fields_rejected(self, field):
        entry = self._entry(build_bench_record("gateway", [_row()]))
        del entry[field]
        with pytest.raises(SchemaError):
            validate_entry(entry)
