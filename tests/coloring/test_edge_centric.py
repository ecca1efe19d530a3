"""Unit tests for the edge-centric kernels."""

import numpy as np
import pytest

from repro.coloring.edge_centric import (
    edge_centric_maxmin,
    edge_kernel_cycles_per_item,
)
from repro.coloring.maxmin import maxmin_coloring
from repro.engine.context import RunContext
from repro.graphs import generators as gen


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize(
        "graph",
        [gen.path(9), gen.clique(6), gen.rmat(7, edge_factor=5, seed=1), gen.grid_2d(8, 8)],
        ids=lambda g: f"n{g.num_vertices}",
    )
    def test_identical_coloring_to_vertex_maxmin(self, graph):
        vc = maxmin_coloring(graph, seed=3)
        ec = edge_centric_maxmin(graph, seed=3)
        assert np.array_equal(vc.colors, ec.colors)
        assert vc.num_iterations == ec.num_iterations

    def test_valid_and_complete(self, small_skewed):
        edge_centric_maxmin(small_skewed).validate(small_skewed)

    def test_priority_kinds_supported(self, small_skewed):
        r = edge_centric_maxmin(small_skewed, priority="degree")
        r.validate(small_skewed)


class TestTiming:
    def test_two_kernels_per_sweep(self, small_skewed, executor):
        r = edge_centric_maxmin(small_skewed, executor)
        for it in r.iterations:
            assert len(it.kernels) == 2
        assert r.total_cycles > 0

    def test_uniform_items_have_high_simd_efficiency(self, small_skewed, executor):
        r = edge_centric_maxmin(small_skewed, executor)
        assert r.iterations[0].simd_efficiency > 0.95

    def test_beats_vertex_centric_on_heavy_skew(self):
        g = gen.rmat(11, edge_factor=12, seed=1)
        vc = maxmin_coloring(g, RunContext().executor(), seed=0)
        ec = edge_centric_maxmin(g, RunContext().executor(), seed=0)
        assert ec.total_cycles < vc.total_cycles

    def test_loses_to_vertex_centric_on_uniform(self):
        g = gen.grid_2d(45, 45)
        vc = maxmin_coloring(g, RunContext().executor(), seed=0)
        ec = edge_centric_maxmin(g, RunContext().executor(), seed=0)
        assert ec.total_cycles > vc.total_cycles

    def test_edge_item_cost_positive_uniform(self, executor):
        c = edge_kernel_cycles_per_item(executor)
        assert c > 0


class TestTimeUniform:
    def test_zero_items_free(self, executor):
        t = executor.time_uniform(0, 10.0)
        assert t.cycles == 0.0

    def test_scales_with_items(self, executor):
        small = executor.time_uniform(10_000, 5.0).cycles
        big = executor.time_uniform(80_000, 5.0).cycles
        assert big > small

    def test_partial_wavefront_efficiency(self, executor):
        t = executor.time_uniform(65, 5.0)  # 2 wavefronts, 63 idle lanes
        assert t.simd_efficiency == pytest.approx(65 / 128)

    def test_counted_in_counters(self, executor):
        executor.counters.reset()
        executor.time_uniform(1000, 5.0, traffic_elements=2000.0)
        assert executor.counters.kernels_launched == 1
        assert executor.counters.traffic_elements == 2000.0

    def test_rejects_negative(self, executor):
        with pytest.raises(ValueError):
            executor.time_uniform(-1, 5.0)
        with pytest.raises(ValueError):
            executor.time_uniform(1, -5.0)

    def test_runner_integration(self):
        from repro.harness.runner import run_gpu_coloring
        from repro.harness.suite import build

        g = build("powerlaw", "tiny")
        r = run_gpu_coloring(g, "edge-centric", RunContext().executor(), seed=0)
        assert r.algorithm == "edge-centric-maxmin"
