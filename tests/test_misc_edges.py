"""Edge-case tests crossing module boundaries (coverage of thin spots)."""

import numpy as np
import pytest

from repro.graphs import generators as gen


class TestPartitionedRangeMethod:
    def test_range_method_end_to_end(self):
        from repro.coloring.partitioned import partitioned_coloring
        from repro.graphs.reorder import rcm_order

        g = gen.delaunay_mesh(300, seed=0)
        relabeled = g.permute(rcm_order(g))  # make ranges spatial
        r = partitioned_coloring(relabeled, num_partitions=4, method="range", seed=0)
        r.validate(relabeled)
        assert r.extras["boundary_fraction"] < 0.8

    def test_runner_registry_includes_partitioned(self):
        from repro.harness.runner import GPU_ALGORITHMS, run_gpu_coloring
        from repro.harness.suite import build

        assert "partitioned" in GPU_ALGORITHMS
        g = build("road", "tiny")
        r = run_gpu_coloring(g, "partitioned", seed=0)
        assert r.algorithm.startswith("partitioned")


class TestEdgeCentricCaps:
    def test_max_iterations_cap(self):
        from repro.coloring.edge_centric import edge_centric_maxmin

        g = gen.rmat(7, edge_factor=5, seed=0)
        r = edge_centric_maxmin(g, max_iterations=2)
        assert r.num_iterations == 2


class TestRecolorRounds:
    def test_balance_zero_rounds_noop(self):
        from repro.coloring.recolor import balance_colors
        from repro.coloring.sequential import greedy_first_fit

        g = gen.erdos_renyi(200, avg_degree=6, seed=1)
        base = greedy_first_fit(g)
        out = balance_colors(g, base.colors, rounds=0)
        out.validate(g)


class TestTraceExportFromDynamic:
    def test_dynamic_fetch_timeline_exports(self, tmp_path):
        import json

        from repro.analysis.trace_io import save_chrome_trace
        from repro.loadbalance.dynamic import simulate_dynamic_fetch

        res = simulate_dynamic_fetch(np.full(12, 7.0), 3, record_timeline=True)
        p = tmp_path / "dyn.json"
        save_chrome_trace(res.timeline, p, process_name="dynamic")
        payload = json.loads(p.read_text())
        assert len([e for e in payload["traceEvents"] if e["ph"] == "X"]) == 12


class TestGanttFromStealing:
    def test_render_real_schedule(self):
        from repro.analysis.gantt import render_gantt
        from repro.loadbalance.workstealing import (
            StealingConfig,
            simulate_work_stealing,
        )

        costs = np.full(20, 30.0)
        owner = np.zeros(20, dtype=np.int64)
        res = simulate_work_stealing(
            costs, owner, StealingConfig(num_workers=4, seed=0), record_timeline=True
        )
        out = render_gantt(res.timeline, width=30)
        assert out.count("\n") == 3  # 4 rows
        assert "█" in out


class TestIterationTimingFields:
    def test_bandwidth_bound_flag_grid(self):
        from repro.gpusim.device import RADEON_HD_7950
        from repro.engine.context import RunContext

        starved = RADEON_HD_7950.with_overrides(dram_bandwidth_gbps=0.001)
        t = RunContext(device=starved).executor().time_iteration(np.full(5000, 16))
        assert t.bandwidth_bound

    def test_bandwidth_bound_flag_persistent(self):
        from repro.gpusim.device import RADEON_HD_7950
        from repro.engine.context import RunContext

        starved = RADEON_HD_7950.with_overrides(dram_bandwidth_gbps=0.001)
        t = RunContext(device=starved).executor(schedule="dynamic").time_iteration(
            np.full(5000, 16)
        )
        assert t.bandwidth_bound


class TestSummaryWithCoreColumn:
    def test_degeneracy_consistent_with_summary(self):
        from repro.graphs.stats import degeneracy, summarize

        g = gen.barabasi_albert(400, attach=4, seed=0)
        s = summarize(g, "ba")
        assert degeneracy(g) <= s.max_degree


class TestCompareIncludesNewAlgorithms:
    def test_cli_compare_lists_edge_centric_and_partitioned(self, capsys):
        from repro.cli import main

        assert main(["compare", "road", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "edge-centric" in out
        assert "partitioned" in out
