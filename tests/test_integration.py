"""Integration tests — end-to-end runs pinning the paper-shaped behaviors.

These are the contract the benchmarks rely on: every algorithm × mode
combination produces a valid coloring with sensible timing, and the
qualitative results the paper reports (who wins where) hold on the
small-scale suite.
"""

import numpy as np
import pytest

from repro.coloring.hybrid import hybrid_switch_coloring
from repro.coloring.kernels import MAPPINGS, SCHEDULES
from repro.coloring.maxmin import maxmin_coloring
from repro.coloring.sequential import greedy_first_fit
from repro.engine.context import RunContext
from repro.harness.runner import GPU_ALGORITHMS, run_gpu_coloring
from repro.harness.suite import build, suite_names
from repro.metrics import imbalance_factor


class TestEveryAlgorithmOnEveryDataset:
    @pytest.mark.parametrize("dataset", suite_names())
    @pytest.mark.parametrize("algo", sorted(GPU_ALGORITHMS))
    def test_valid_and_timed(self, dataset, algo):
        g = build(dataset, "tiny")
        r = run_gpu_coloring(g, algo, RunContext().executor(), seed=0)
        assert r.total_cycles > 0
        assert r.num_colors >= 1


class TestEveryExecutionMode:
    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_maxmin_under_all_modes(self, mapping, schedule):
        g = build("powerlaw", "tiny")
        ex = RunContext().executor(mapping=mapping, schedule=schedule)
        r = maxmin_coloring(g, ex, seed=1)
        r.validate(g)
        assert r.total_cycles > 0

    @pytest.mark.parametrize("mapping", MAPPINGS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_mode_does_not_change_colors(self, mapping, schedule):
        g = build("citation", "tiny")
        ref = maxmin_coloring(g, seed=2)
        ex = RunContext().executor(mapping=mapping, schedule=schedule)
        r = maxmin_coloring(g, ex, seed=2)
        assert np.array_equal(r.colors, ref.colors)


class TestPaperShapes:
    """The qualitative claims E3–E8 quantify, pinned at small scale."""

    def test_hybrid_mapping_wins_on_skewed_graphs(self):
        for name in suite_names(skewed_only=True):
            g = build(name, "small")
            base = maxmin_coloring(g, RunContext().executor(), seed=0)
            hyb = maxmin_coloring(g, RunContext().executor(mapping="hybrid"), seed=0)
            assert hyb.total_cycles < base.total_cycles, name

    def test_hybrid_mapping_harmless_on_uniform_graphs(self):
        for name in suite_names(skewed_only=False):
            g = build(name, "small")
            base = maxmin_coloring(g, RunContext().executor(), seed=0)
            hyb = maxmin_coloring(g, RunContext().executor(mapping="hybrid"), seed=0)
            assert hyb.total_cycles <= 1.1 * base.total_cycles, name

    def test_stealing_beats_static_persistent_on_skewed(self):
        # needs enough chunks per worker to have anything to steal →
        # standard scale, first iterations only (they dominate anyway)
        g = build("rmat", "standard")
        static = maxmin_coloring(
            g, RunContext().executor(schedule="static"), seed=0, max_iterations=4, compact=False
        )
        steal = maxmin_coloring(
            g, RunContext().executor(schedule="stealing"), seed=0, max_iterations=4, compact=False
        )
        assert steal.total_cycles < static.total_cycles

    def test_simd_efficiency_tracks_skew(self):
        skewed = build("rmat", "small")
        uniform = build("grid2d", "small")
        ex = RunContext().executor()
        eff_skewed = maxmin_coloring(skewed, ex).iterations[0].simd_efficiency
        eff_uniform = maxmin_coloring(uniform, ex).iterations[0].simd_efficiency
        assert eff_uniform > 0.9
        assert eff_skewed < 0.6

    def test_per_cu_imbalance_tracks_skew(self):
        ex = RunContext().executor(schedule="static")
        skew = ex.time_iteration(build("rmat", "small").degrees)
        flat = ex.time_iteration(build("regular", "small").degrees)
        assert imbalance_factor(skew.cu_busy) > imbalance_factor(flat.cu_busy)

    def test_switch_hybrid_cuts_iterations_on_skewed(self):
        g = build("powerlaw", "small")
        mm = maxmin_coloring(g, RunContext().executor(), seed=0)
        sw = hybrid_switch_coloring(g, RunContext().executor(), seed=0)
        assert sw.num_iterations < mm.num_iterations

    def test_gpu_color_quality_close_to_greedy(self):
        # GPU algorithms trade a few extra colors for parallelism —
        # bounded, not unbounded
        for name in ("random", "road", "powerlaw"):
            g = build(name, "small")
            greedy = greedy_first_fit(g).num_colors
            jp = run_gpu_coloring(g, "jp").num_colors
            assert jp <= 2 * greedy + 2, name

    def test_active_set_shrinks_monotonically_for_maxmin(self):
        g = build("road", "small")
        r = maxmin_coloring(g)
        actives = [it.active_vertices for it in r.iterations]
        assert all(a > b for a, b in zip(actives, actives[1:]))


class TestDeviceSensitivity:
    def test_more_cus_never_slower(self):
        from repro.gpusim.device import RADEON_HD_7950

        g = build("random", "small")
        small_dev = RADEON_HD_7950.with_overrides(num_cus=7)
        big_dev = RADEON_HD_7950.with_overrides(num_cus=56)
        t_small = maxmin_coloring(g, RunContext(device=small_dev).executor()).total_cycles
        t_big = maxmin_coloring(g, RunContext(device=big_dev).executor()).total_cycles
        assert t_big <= t_small

    def test_faster_clock_reduces_wall_time_not_cycles(self):
        from repro.gpusim.device import RADEON_HD_7950

        g = build("road", "tiny")
        slow = RADEON_HD_7950.with_overrides(clock_mhz=500.0)
        fast = RADEON_HD_7950.with_overrides(clock_mhz=2000.0)
        r_slow = maxmin_coloring(g, RunContext(device=slow).executor())
        r_fast = maxmin_coloring(g, RunContext(device=fast).executor())
        assert r_fast.time_ms < r_slow.time_ms
