"""CLI surface of the fleet subsystem: fleet-sim, ingest-trace, listings."""

from __future__ import annotations

import re

import pytest

from repro.cli import main

CSV = """jobid,user,submit_time,run_time,gpus
j1,vc-a,0,3600,1
j2,vc-b,600,1800,2
j3,vc-c,1200,3600,1
"""


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "jobs.csv"
    path.write_text(CSV)
    return str(path)


class TestFleetSim:
    def test_runs_a_fleet_and_streams_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "fleet.jsonl"
        code = main(
            [
                "fleet-sim",
                "--scenario",
                "hetero-generations",
                "--regions",
                "2",
                "--rounds",
                "6",
                "--backend",
                "serial",
                "--metrics",
                str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fairness violations: 0" in out
        assert re.search(
            r"PE/SI-checked, pre-pass \d+\.\d{3}s\), fan-out \d+\.\d{3}s,", out
        )
        assert "fleet fingerprint:" in out
        assert metrics.exists() and metrics.stat().st_size > 0

    def test_metrics_file_is_truncated_between_runs(self, tmp_path, capsys):
        metrics = tmp_path / "fleet.jsonl"
        args = [
            "fleet-sim", "--scenario", "hetero-generations",
            "--regions", "2", "--rounds", "6",
            "--backend", "serial", "--metrics", str(metrics),
        ]
        assert main(args) == 0
        size_one_run = metrics.stat().st_size
        assert main(args) == 0
        assert metrics.stat().st_size == size_one_run  # replaced, not doubled
        capsys.readouterr()

    def test_unknown_trace_name_is_typed_and_nonzero(self, capsys):
        code = main(
            ["fleet-sim", "--scenario", "trace:never-ingested", "--regions", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "trace" in err

    def test_unknown_scenario_name_is_typed_and_nonzero(self, capsys):
        code = main(["fleet-sim", "--scenario", "steadyy", "--regions", "2"])
        assert code == 2
        assert "steady" in capsys.readouterr().err  # did-you-mean


class TestIngestTrace:
    def test_ingest_then_replay(self, tmp_path, csv_path, capsys, monkeypatch):
        store = tmp_path / "store"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(store))
        assert main(["ingest-trace", csv_path, "--name", "ops"]) == 0
        out = capsys.readouterr().out
        assert "ingested 3 jobs" in out
        assert "trace:ops" in out
        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    "trace:ops",
                    "--rounds",
                    "6",
                ]
            )
            == 0
        )
        assert "trace:ops" in capsys.readouterr().out

    def test_store_flag_overrides_env(self, tmp_path, csv_path, capsys):
        store = tmp_path / "explicit"
        code = main(["ingest-trace", csv_path, "--store", str(store)])
        assert code == 0
        assert (store / "jobs.jsonl").exists()

    def test_disabled_store_fails_typed(self, csv_path, capsys):
        # conftest sets REPRO_TRACE_DIR="" (discovery disabled)
        code = main(["ingest-trace", csv_path])
        assert code == 2
        assert "no trace store" in capsys.readouterr().err

    def test_malformed_trace_fails_typed(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("jobid,submit_time\nj1,0\n")  # no tenant, no duration
        code = main(["ingest-trace", path.as_posix(), "--store", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestListings:
    def test_list_scenarios_has_family_column(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "family" in out.splitlines()[0]
        assert "cluster" in out and "fleet" in out
        assert "spot-preemption" in out

    def test_list_scenarios_includes_ingested_traces(
        self, tmp_path, csv_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "store"))
        assert main(["ingest-trace", csv_path, "--name", "ops"]) == 0
        capsys.readouterr()
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "trace:ops" in out

    def test_simulate_unknown_trace_is_typed_and_nonzero(self, capsys):
        code = main(["simulate", "--scenario", "trace:ghost"])
        assert code == 2
        assert "trace" in capsys.readouterr().err
