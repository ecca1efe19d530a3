"""Unit tests for run-report generation."""

import numpy as np
import pytest

from repro.analysis import render_busy_bars, run_report
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

    def test_report_leaves_the_run_untouched(self):
        # the probe sweep runs on a private context: neither the run's
        # context counters nor its trace see it
        graph = build("rmat", "tiny")
        ctx = RunContext()
        ring = ctx.enable_tracing()
        executor = ctx.executor()
        result = maxmin_coloring(graph, executor, seed=0, context=ctx)
        row, events = ctx.counters.as_row(), len(ring)
        text = run_report(graph, result, executor, graph_name="rmat")
        assert ctx.counters.as_row() == row
        assert len(ring) == events
        assert run_report(graph, result, executor, graph_name="rmat") == text

    def test_cli_report_command(self, capsys):
        from repro.cli import main

        assert main(["report", "road", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "execution counters" in out


class TestRenderBusyBars:
    def test_proportional(self):
        out = render_busy_bars(np.array([100.0, 50.0, 0.0]), width=10)
        lines = out.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5
        assert lines[2].count("█") == 0

    def test_zero_loads(self):
        out = render_busy_bars(np.zeros(2), width=5)
        assert "█" not in out

    def test_empty(self):
        assert "no workers" in render_busy_bars(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            render_busy_bars(np.array([-1.0]))
