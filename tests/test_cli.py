"""CLI: every subcommand against a demo instance."""

import json

import pytest

from repro.cli import main
from repro.core import (
    CooperativeOEF,
    instance_to_dict,
    load_allocation,
)
from repro.core.serialization import save_instance


@pytest.fixture
def instance_path(tmp_path, paper_instance):
    path = tmp_path / "instance.json"
    save_instance(paper_instance, path)
    return str(path)


class TestAllocate:
    def test_allocate_to_stdout(self, instance_path, capsys):
        assert main(["allocate", instance_path, "--scheduler", "oef-coop"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["allocator"] == "oef-coop"
        assert payload["total_efficiency"] == pytest.approx(4.5)

    def test_allocate_to_file(self, instance_path, tmp_path, capsys):
        output = tmp_path / "allocation.json"
        assert (
            main(
                [
                    "allocate",
                    instance_path,
                    "--scheduler",
                    "oef-noncoop",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        allocation = load_allocation(output)
        throughput = allocation.user_throughput()
        assert throughput[0] == pytest.approx(throughput[1], rel=1e-5)

    def test_every_registered_scheduler_runs(self, instance_path, capsys):
        for scheduler in (
            "oef-coop",
            "oef-noncoop",
            "max-min",
            "gandiva-fair",
            "gavel",
            "drf",
            "efficiency-max",
        ):
            assert main(["allocate", instance_path, "--scheduler", scheduler]) == 0
            capsys.readouterr()


class TestAudit:
    def test_audit_coop(self, instance_path, capsys):
        assert (
            main(
                [
                    "audit",
                    instance_path,
                    "--scheduler",
                    "oef-coop",
                    "--sp-trials",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "EF" in out and "yes" in out

    def test_audit_maxmin(self, instance_path, capsys):
        assert (
            main(["audit", instance_path, "--scheduler", "max-min", "--sp-trials", "1"])
            == 0
        )
        assert "max-min" in capsys.readouterr().out

    def test_audit_policy_overrides_win(self, instance_path, capsys):
        # registry default for oef-noncoop is the equal-throughput optimum
        # (satisfied); against the unconstrained bound it must fail
        assert (
            main(
                [
                    "audit",
                    instance_path,
                    "--scheduler",
                    "oef-noncoop",
                    "--sp-trials",
                    "1",
                    "--efficiency-constraint",
                    "none",
                    "--pe-within",
                    "none",
                ]
            )
            == 0
        )
        row = capsys.readouterr().out.splitlines()[1]
        assert row.strip().endswith("no")


class TestCompareAndFrontier:
    def test_compare(self, instance_path, capsys):
        assert main(["compare", instance_path]) == 0
        out = capsys.readouterr().out
        for name in ("oef-coop", "gavel", "drf"):
            assert name in out

    def test_frontier(self, instance_path, capsys):
        assert main(["frontier", instance_path, "--alphas", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "1.0000" in out


class TestDemo:
    def test_demo_writes_valid_instance(self, tmp_path, capsys):
        output = tmp_path / "demo.json"
        assert main(["demo", "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["schema"] == "repro/instance-v1"
        assert len(payload["speedups"]) == 4


class TestPipelineFlag:
    def test_solve_alias_with_bare_pipeline_matches_default(
        self, instance_path, capsys
    ):
        assert main(["solve", instance_path, "--pipeline", "bare"]) == 0
        bare = json.loads(capsys.readouterr().out)
        assert main(["allocate", instance_path, "--pipeline", "default"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert bare == default  # fingerprint equality: same allocation JSON

    def test_unknown_pipeline_rejected(self, instance_path):
        with pytest.raises(SystemExit):
            main(["allocate", instance_path, "--pipeline", "fancy"])


class TestListMiddleware:
    def test_lists_default_pipeline_stages_in_order(self, capsys):
        assert main(["list-middleware"]) == 0
        out = capsys.readouterr().out
        for stage in (
            "admission",
            "metrics",
            "coalesce",
            "cache",
            "solver",
        ):
            assert stage in out
        for header in ("stage", "class", "caches", "sheds", "terminal"):
            assert header in out
        assert "warm-start" not in out
        # pipeline order: admission outermost, solver terminal
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[1].split()[1] == "admission"
        assert lines[-1].split()[1] == "solver"


class TestBenchGatewayRecord:
    def test_bench_json_also_writes_gateway_record(self, tmp_path, capsys):
        target = tmp_path / "records" / "BENCH_parallel.json"
        assert (
            main(
                [
                    "bench",
                    "--instances",
                    "2",
                    "--users",
                    "4",
                    "--gpu-types",
                    "2",
                    "--backends",
                    "thread",
                    "--jobs",
                    "2",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        capsys.readouterr()
        gateway_record = json.loads(
            (tmp_path / "records" / "BENCH_gateway.json").read_text()
        )
        assert gateway_record["schema"] == "repro/bench-v1"
        assert gateway_record["benchmark"] == "gateway"
        rows = {row["name"]: row for row in gateway_record["rows"]}
        assert set(rows) == {
            "bare/cold",
            "pipeline/cold",
            "pipeline/hot",
            "pipeline+audit/hot",
        }
        assert rows["pipeline/hot"]["matches_bare"] is True
        assert rows["pipeline+audit/hot"]["audit_overhead_vs_hot"] > 0


class TestListSchedulers:
    def test_lists_every_registered_scheduler(self, capsys):
        from repro import scheduler_names

        assert main(["list-schedulers"]) == 0
        out = capsys.readouterr().out
        for name in scheduler_names():
            assert name in out
        for header in ("name", "family", "aliases", "pe domain"):
            assert header in out


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestErrors:
    def test_unknown_scheduler_exits(self, instance_path):
        with pytest.raises(SystemExit):
            main(["allocate", instance_path, "--scheduler", "fifo"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_corrupt_stored_trace_is_error_exit_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # main() reports every ReproError once: no traceback, exit 2
        (tmp_path / "ops.jsonl").write_text(
            '{"schema": "repro/trace-v1", "job_id": "j1", "tenant": "a", '
            '"submit_s": 0.0, "duration_s": 0, "num_workers": 1}\n'
        )
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        assert main(["simulate", "--scenario", "trace:ops", "--rounds", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ops.jsonl:1: duration_s" in err
