"""The concurrent experiment runner: ordering, verdicts, error capture."""

import io

import pytest

from repro.exceptions import ValidationError
from repro.experiments import runner
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import (
    ExperimentOutcome,
    experiment_ids,
    format_summary,
    run_experiment,
    run_suite,
    suite_ok,
)


class TestRunExperiment:
    def test_captures_output_and_timing(self):
        outcome = run_experiment("fig1")
        assert outcome.ok and outcome.status == "PASS"
        assert "Fig. 1" in outcome.output
        assert outcome.seconds > 0.0
        assert outcome.error == ""

    def test_unknown_id_raises(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            run_experiment("fig99")

    def test_failure_is_an_outcome_not_a_crash(self, monkeypatch):
        class _Boom:
            @staticmethod
            def run():
                raise RuntimeError("injected failure")

        monkeypatch.setattr(
            "repro.experiments.ALL_EXPERIMENTS", [("boom", _Boom)]
        )
        outcome = run_experiment("boom")
        assert not outcome.ok and outcome.status == "FAIL"
        assert "injected failure" in outcome.error


class TestRunSuite:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_subset_in_canonical_order(self, backend):
        stream = io.StringIO()
        outcomes = run_suite(
            ["fig6", "fig1"], backend=backend, jobs=2, stream=stream
        )
        # suite order is the ids as given; output replays in that order
        assert [outcome.name for outcome in outcomes] == ["fig6", "fig1"]
        text = stream.getvalue()
        assert text.index("fig6") < text.index("fig1")
        assert "2/2 passed" in text
        assert suite_ok(outcomes)

    def test_thread_backend_attributes_output_correctly(self):
        # regression: a process-global redirect_stdout would interleave
        # concurrent experiments' prints and could leave sys.stdout
        # pointing at a worker's buffer after the run
        import sys

        real_stdout = sys.stdout
        stream = io.StringIO()
        run_suite(["fig1", "fig6"], backend="thread", jobs=2, stream=stream)
        assert sys.stdout is real_stdout
        blocks = stream.getvalue().split("##########")
        fig1_body, fig6_body = blocks[2], blocks[4]
        assert "Fig. 1" in fig1_body and "Fig. 6" not in fig1_body
        assert "Fig. 6" in fig6_body and "Fig. 1" not in fig6_body

    def test_unknown_ids_rejected_up_front(self):
        with pytest.raises(ValidationError, match="unknown experiment ids"):
            run_suite(["fig1", "nope"], stream=io.StringIO())

    def test_default_runs_everything(self):
        assert len(experiment_ids()) == 12
        assert "scenarios" in experiment_ids()

    def test_failed_experiment_reported_in_summary(self, monkeypatch):
        class _Boom:
            @staticmethod
            def run():
                raise RuntimeError("injected failure")

        monkeypatch.setattr(
            "repro.experiments.ALL_EXPERIMENTS",
            [("boom", _Boom)],
        )
        stream = io.StringIO()
        outcomes = run_suite(["boom"], backend="serial", stream=stream)
        assert not suite_ok(outcomes)
        assert "FAILED: boom" in stream.getvalue()
        assert "injected failure" in stream.getvalue()


class TestOutcomeText:
    def test_results_render_blank_line_separated(self):
        outcome = ExperimentOutcome(
            "fig5", True, 0.1,
            results=(ExperimentResult("a"), ExperimentResult("b", notes=["n"])),
        )
        assert outcome.output == "== a ==\n\n== b ==\n  note: n\n"

    def test_failed_outcome_has_no_text(self):
        assert ExperimentOutcome("boom", False, 0.1, error="x").output == ""


class TestSummary:
    def test_format_summary_lines(self):
        outcomes = [
            ExperimentOutcome("fig1", True, 1.25),
            ExperimentOutcome("table1", False, 0.5, error="boom"),
        ]
        text = format_summary(outcomes, suite_seconds=1.3, backend_name="thread")
        assert "thread backend" in text
        assert "fig1" in text and "PASS" in text
        assert "1/2 passed" in text
        assert "FAILED: table1" in text
