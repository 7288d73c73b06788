"""Trace ingestion pipeline: normalize -> store -> replay as a scenario."""

from __future__ import annotations

import pytest

from repro.exceptions import TraceFormatError, UnknownTraceError
from repro.scenarios import ScenarioRunner, make_scenario
from repro.scenarios.events import JobArrival, TenantArrival
from repro.traces import (
    TRACE_SCHEMA,
    TraceStore,
    ingest_file,
    normalize_rows,
    trace_rows,
    trace_scenario,
    validate_trace_record,
)

CSV = """jobid,user,submit_time,run_time,gpus,model
j1,vc-a,100,3600,1,resnet50
j2,vc-a,1300,1800,2,
j3,vc-b,700,7200,1,
j4,vc-b,900,0,1,
"""


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "jobs.csv"
    path.write_text(CSV)
    return str(path)


@pytest.fixture
def store(tmp_path, csv_path):
    store = TraceStore(str(tmp_path / "store"))
    store.save("prod", ingest_file(csv_path))
    return store


class TestNormalize:
    def test_aliases_map_to_canonical_fields(self, csv_path):
        records = ingest_file(csv_path)
        assert all(r["schema"] == TRACE_SCHEMA for r in records)
        assert {r["tenant"] for r in records} == {"vc-a", "vc-b"}
        assert records[0]["num_workers"] == 1

    def test_submit_times_anchor_at_zero(self, csv_path):
        records = ingest_file(csv_path)
        assert min(float(r["submit_s"]) for r in records) == 0.0

    def test_zero_duration_rows_are_dropped(self, csv_path):
        assert len(ingest_file(csv_path)) == 3  # j4 has run_time 0

    def test_missing_tenant_is_a_typed_error(self):
        with pytest.raises(TraceFormatError, match="row 1"):
            normalize_rows([{"job_id": "j1", "submit": 0, "duration": 60}])

    def test_missing_duration_is_a_typed_error(self):
        with pytest.raises(TraceFormatError, match="duration"):
            normalize_rows([{"job_id": "j1", "user": "a", "submit": 0}])

    def test_nan_worker_count_is_a_typed_error(self):
        row = {"user": "a", "submit": 0, "duration": 60, "gpus": "nan"}
        with pytest.raises(TraceFormatError, match="num_workers"):
            normalize_rows([row])

    def test_infinite_duration_is_a_typed_error(self):
        row = {"user": "a", "submit": 0, "duration": "inf", "gpus": 1}
        with pytest.raises(TraceFormatError, match="duration_s"):
            normalize_rows([row])

    def test_jsonl_input(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            '{"id": "a", "vc": "t1", "timestamp": 5, "runtime": 60, "gpu_num": 2}\n'
        )
        (record,) = ingest_file(str(path))
        assert record["tenant"] == "t1"
        assert record["num_workers"] == 2
        assert record["submit_s"] == 0.0

    def test_corrupt_jsonl_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{}\nnot json\n")
        with pytest.raises(TraceFormatError, match=":2:"):
            ingest_file(str(path))


class TestStore:
    def test_roundtrip(self, store):
        records = store.load("prod")
        assert len(records) == 3
        for record in records:
            validate_trace_record(record)

    def test_unknown_name_is_typed_with_suggestions(self, store):
        with pytest.raises(UnknownTraceError, match="prod"):
            store.load("prodd")

    def test_save_replaces_previous_version(self, store, csv_path):
        store.save("prod", ingest_file(csv_path))
        assert len(store.load("prod")) == 3  # not appended twice

    def test_empty_save_is_rejected(self, store):
        with pytest.raises(TraceFormatError, match="no job records"):
            store.save("empty", [])

    def test_default_store_disabled_by_empty_env(self):
        # conftest sets REPRO_TRACE_DIR="" for isolation
        assert TraceStore.default() is None
        assert trace_rows() == []


class TestReplay:
    def test_trace_scenario_runs_to_completion(self, store):
        scenario = trace_scenario("prod", seed=3, rounds=8, store_root=store.root)
        result = ScenarioRunner(scenario).run()
        assert result.completed_jobs == 3
        assert result.num_rounds >= 1

    def test_make_scenario_resolves_trace_prefix(self, store):
        scenario = make_scenario(
            "trace:prod", seed=1, rounds=6, store_root=store.root
        )
        assert scenario.name == "trace:prod"
        script = scenario.materialize()
        arrivals = [e for e in script.events if isinstance(e, TenantArrival)]
        assert len(script.initial_tenants) + len(arrivals) == 2

    def test_same_seed_same_fingerprint(self, store):
        scripts = [
            make_scenario(
                "trace:prod", seed=7, rounds=8, store_root=store.root
            ).materialize()
            for _ in range(2)
        ]
        assert scripts[0].fingerprint() == scripts[1].fingerprint()

    def test_late_jobs_become_job_arrivals(self, store):
        script = make_scenario(
            "trace:prod", seed=0, rounds=8, store_root=store.root
        ).materialize()
        assert any(isinstance(e, JobArrival) for e in script.events)

    def test_unknown_trace_is_typed(self, store):
        with pytest.raises(UnknownTraceError, match="ingest-trace"):
            make_scenario("trace:nope", store_root=store.root)

    def test_no_store_configured_is_typed(self):
        with pytest.raises(UnknownTraceError, match="no trace store"):
            make_scenario("trace:whatever")

    def test_trace_rows_list_ingested_traces(self, store):
        (row,) = trace_rows(store)
        assert row["name"] == "trace:prod"
        assert row["family"] == "trace"
