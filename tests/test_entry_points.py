"""Process-level entry points: the module mains a user actually types."""

import subprocess
import sys

import pytest


def _run(args, timeout=600):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExperimentRunner:
    def test_single_experiment_via_cli(self):
        result = _run(["-m", "repro", "experiments", "fig1"])
        assert result.returncode == 0
        assert "Fig. 1" in result.stdout

    def test_fig2_via_cli(self):
        result = _run(["-m", "repro", "experiments", "fig2"])
        assert result.returncode == 0
        assert "strategy-proof" in result.stdout


class TestReportRunner:
    def test_report_to_file(self, tmp_path):
        output = tmp_path / "report.md"
        result = _run(
            ["-m", "repro.experiments.report", str(output), "fig1", "fig2"]
        )
        assert result.returncode == 0
        text = output.read_text()
        assert text.startswith("# OEF reproduction report")
        assert "Fig. 1" in text and "Fig. 2" in text


class TestCLIEntryPoint:
    def test_help_via_python_m_repro(self):
        result = _run(["-m", "repro", "--help"])
        assert result.returncode == 0
        assert "allocate" in result.stdout
        assert "frontier" in result.stdout

    def test_demo_allocate_round_trip(self, tmp_path):
        instance_path = tmp_path / "instance.json"
        demo = _run(["-m", "repro", "demo", "--output", str(instance_path)])
        assert demo.returncode == 0
        allocate = _run(
            [
                "-m",
                "repro",
                "allocate",
                str(instance_path),
                "--scheduler",
                "max-min",
            ]
        )
        assert allocate.returncode == 0
        assert '"allocator": "max-min"' in allocate.stdout
