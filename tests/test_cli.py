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
    def test_unknown_scheduler_exits(self, instance_path, capsys):
        # the registry's did-you-mean error, as simulate and the wire give
        assert main(["allocate", instance_path, "--scheduler", "fifo"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scheduler 'fifo'; choose from [")

    @pytest.mark.parametrize(
        "argv",
        [
            [command, name]
            for command in ("allocate", "audit", "compare", "frontier")
            for name in ("missing.json", "malformed.json")
        ]
        + [["ingest-trace", "missing.csv"]],
        ids="-".join,
    )
    def test_bad_input_file_is_error_exit_2(self, argv, tmp_path, capsys):
        (tmp_path / "malformed.json").write_text('{"schema": ')
        path = str(tmp_path / argv[1])
        assert main([argv[0], path, *argv[2:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err

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

    def test_fleet_window_rounds_checked_before_any_region_runs(
        self, tmp_path, capsys
    ):
        metrics = tmp_path / "fleet.jsonl"
        argv = ["fleet-sim", "--scenario", "multiregion-failover", "--regions", "2",
                "--rounds", "2", "--no-rebalance", "--window-rounds", "0",
                "--backend", "serial", "--metrics", str(metrics)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and not metrics.exists()
        assert err.startswith("error: ") and "window_rounds" in err


def _subcommands():
    from repro.cli import build_parser

    actions = [
        action
        for action in build_parser()._actions
        if action.__class__.__name__ == "_SubParsersAction"
    ]
    return sorted(actions[0].choices)


class TestParser:
    @pytest.mark.parametrize("command", _subcommands())
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        canonical = "allocate" if command == "solve" else command  # an alias
        assert capsys.readouterr().out.startswith(f"usage: repro {canonical}")

    @pytest.mark.parametrize(
        "command", [name for name in _subcommands() if name != "solve"]
    )
    def test_module_docstring_lists_every_subcommand(self, command):
        import repro.cli

        assert f"``{command}``" in repro.cli.__doc__

    @pytest.mark.parametrize("command", ["bench", "loadtest"])
    def test_removed_benchmark_commands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["allocate"], "instance"),
            (["audit", "x.json", "--pe-within", "bogus"], "--pe-within"),
            (["audit", "x.json", "--efficiency-constraint", "bogus"],
             "--efficiency-constraint"),
            (["audit", "x.json", "--sp-trials", "many"], "--sp-trials"),
            (["audit-report", "--format", "yaml"], "--format"),
            (["audit-report", "--rate", "high"], "--rate"),
            (["compare", "x.json", "--backend", "process"], "--backend"),
            (["frontier"], "instance"),
            (["frontier", "x.json", "--jobs", "two"], "--jobs"),
            (["simulate"], "--scenario"),
            (["simulate", "--scenario", "steady", "--seeds"], "--seeds"),
            (["simulate", "--scenario", "steady", "--backend", "gpu"], "--backend"),
            (["fleet-sim"], "--scenario"),
            (["fleet-sim", "--scenario", "steady", "--window-rounds", "x"],
             "--window-rounds"),
            (["ingest-trace"], "file"),
            (["ingest-trace", "t.csv", "--format", "xml"], "--format"),
            (["experiments", "--jobs", "two"], "--jobs"),
            (["serve", "--port", "http"], "--port"),
            (["serve", "--pipeline", "turbo"], "--pipeline"),
            (["serve", "--audit", "often"], "--audit"),
            (["frontier", "x.json", "--alphas", "a,b"], "--alphas"),
            (["audit-report", "--rate", "5"], "--rate"),
            (["serve", "--audit", "5"], "--audit"),
            (["serve", "--port", "99999"], "--port"),
            (["serve", "--shards", "0"], "--shards"),
            (["serve", "--max-in-flight", "-1"], "--max-in-flight"),
        ],
        ids=lambda value: "-".join(value) if isinstance(value, list) else None,
    )
    def test_bad_arguments_are_usage_errors(self, argv, complaint, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]}") and complaint in err

    @pytest.mark.parametrize("command", ["simulate", "fleet-sim"])
    def test_unknown_scenario_is_error_exit_2(self, command, capsys):
        assert main([command, "--scenario", "stedy", "--rounds", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "steady" in err
