"""Experiment helpers: table formatting and the report generator."""

import io

import pytest

from repro.experiments import fig1_motivation, report
from repro.experiments.common import ExperimentResult
from repro.experiments.report import _as_markdown, generate_report
from repro.experiments.runner import run_experiment


class TestExperimentResultFormat:
    def test_header_union_across_rows(self):
        result = ExperimentResult("t")
        result.rows = [{"a": 1}, {"b": 2.5}]
        text = result.format()
        assert "a" in text and "b" in text
        assert "2.500" in text

    def test_notes_rendered(self):
        result = ExperimentResult("t", notes=["something important"])
        assert "something important" in result.format()

    def test_empty_result(self):
        result = ExperimentResult("empty")
        assert "empty" in result.format()

    def test_float_formatting(self):
        result = ExperimentResult("t")
        result.rows = [{"x": 1.23456789}]
        assert "1.235" in result.format()


class TestReport:
    def test_markdown_table_shape(self):
        result = ExperimentResult("Fig. X — demo")
        result.rows = [{"col": 1.0, "name": "a"}, {"col": 2.0, "name": "b"}]
        result.notes = ["a note"]
        text = _as_markdown(result)
        assert text.startswith("### Fig. X — demo")
        assert "| col | name |" in text
        assert "> a note" in text

    def test_generate_report_subset(self):
        stream = io.StringIO()
        count = generate_report(stream, only=["fig1", "fig2"])
        text = stream.getvalue()
        assert count == 2
        assert "Fig. 1" in text
        assert "Fig. 2" in text
        assert "regenerated in" in text

    @pytest.mark.parametrize("name", ["fig1", "fig5", "fig10"])
    def test_text_and_markdown_titles_agree(self, name):
        # both outputs render the same run() results, table for table
        text_titles = [
            line[len("== "):-len(" ==")]
            for line in run_experiment(name).output.splitlines()
            if line.startswith("== ")
        ]
        stream = io.StringIO()
        generate_report(stream, only=[name])
        markdown_titles = [
            line[len("### "):]
            for line in stream.getvalue().splitlines()
            if line.startswith("### ")
        ]
        assert text_titles and text_titles == markdown_titles

    def test_unknown_id_exits_before_writing(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert report.main([str(path), "fig1", "fig99"]) == 2
        assert "unknown experiment ids ['fig99']" in capsys.readouterr().err
        assert not path.exists()

    def test_failing_experiment_gets_a_failed_section(self, monkeypatch, tmp_path):
        class _Boom:
            @staticmethod
            def run():
                raise RuntimeError("injected failure")

        monkeypatch.setattr(
            "repro.experiments.ALL_EXPERIMENTS",
            [("boom", _Boom), ("fig1", fig1_motivation)],
        )
        path = tmp_path / "report.md"
        assert report.main([str(path)]) == 1
        text = path.read_text(encoding="utf-8")
        assert "### boom FAILED" in text and "injected failure" in text
        # the experiments after the failing one still ran
        assert "### Fig. 1 — heterogeneity motivation" in text
