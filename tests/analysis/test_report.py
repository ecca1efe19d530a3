"""Unit tests for run-report generation."""

import pytest

from repro.analysis.report import run_report
from repro.coloring.maxmin import maxmin_coloring
from repro.engine.context import RunContext
from repro.harness.suite import build


@pytest.fixture
def run():
    graph = build("powerlaw", "tiny")
    executor = RunContext().executor()
    result = maxmin_coloring(graph, executor, seed=0)
    return graph, result, executor


class TestRunReport:
    def test_contains_all_sections(self, run):
        graph, result, executor = run
        text = run_report(graph, result, executor, graph_name="pl")
        assert "input" in text
        assert "result: maxmin" in text
        assert "iterations" in text
        assert "execution counters" in text
        assert "full-sweep load profile" in text
        assert "cu0" in text

    def test_without_executor(self, run):
        graph, result, _ = run
        text = run_report(graph, result)
        assert "execution counters" not in text
        assert "result: maxmin" in text

    def test_iteration_rows_truncated(self, run):
        graph, result, executor = run
        text = run_report(graph, result, executor, max_iteration_rows=2)
        assert f"first 2 of {result.num_iterations}" in text

    def test_probe_does_not_perturb_counters(self, run):
        graph, result, executor = run
        before = executor.counters.kernels_launched
        run_report(graph, result, executor)
        assert executor.counters.kernels_launched == before

    def test_cli_report_command(self, capsys):
        from repro.cli import main

        assert main(["report", "road", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "execution counters" in out
