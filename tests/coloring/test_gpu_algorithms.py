"""Unit tests shared across the GPU coloring algorithms."""

import tracemalloc

import numpy as np
import pytest

from repro.coloring.base import UNCOLORED
from repro.coloring.hybrid import hybrid_switch_coloring
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.kernels import ExecutionConfig, GPUExecutor
from repro.coloring.maxmin import compact_colors, maxmin_coloring
from repro.coloring.recolor import recolor_greedy
from repro.coloring.sequential import greedy_first_fit
from repro.coloring.speculative import speculative_coloring
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.gpusim.device import RADEON_HD_7950

GPU_ALGOS = [
    maxmin_coloring,
    jones_plassmann_coloring,
    speculative_coloring,
    hybrid_switch_coloring,
]

STRUCTURES = [
    gen.path(12),
    gen.cycle(9),
    gen.clique(7),
    gen.star(15),
    gen.complete_bipartite(4, 5),
    gen.grid_2d(8, 9),
    gen.erdos_renyi(250, avg_degree=8, seed=1),
    gen.rmat(7, edge_factor=6, seed=1),
    gen.barabasi_albert(200, attach=3, seed=1),
    CSRGraph.empty(6),
]


@pytest.mark.parametrize("algo", GPU_ALGOS)
@pytest.mark.parametrize("graph", STRUCTURES, ids=lambda g: f"n{g.num_vertices}m{g.num_edges}")
class TestValidityEverywhere:
    def test_produces_proper_complete_coloring(self, algo, graph):
        algo(graph).validate(graph)


@pytest.mark.parametrize("algo", GPU_ALGOS)
class TestCommonBehaviors:
    def test_deterministic_given_seed(self, algo, small_skewed):
        a = algo(small_skewed, seed=5)
        b = algo(small_skewed, seed=5)
        assert np.array_equal(a.colors, b.colors)
        assert a.num_iterations == b.num_iterations

    def test_seed_changes_result(self, algo, small_skewed):
        a = algo(small_skewed, seed=1)
        b = algo(small_skewed, seed=2)
        # priorities differ → almost surely different colorings
        assert not np.array_equal(a.colors, b.colors)

    def test_clique_uses_exactly_n(self, algo):
        g = gen.clique(9)
        assert algo(g).validate(g).num_colors == 9

    def test_iteration_records_consistent(self, algo, small_random):
        r = algo(small_random)
        n = small_random.num_vertices
        assert sum(it.newly_colored for it in r.iterations) == n
        actives = [it.active_vertices for it in r.iterations]
        assert actives[0] == n
        assert all(a > 0 for a in actives)
        assert [it.index for it in r.iterations] == list(range(len(actives)))

    def test_untimed_run_has_no_cycles(self, algo, small_random):
        r = algo(small_random)
        assert r.total_cycles == 0.0
        assert r.device is None
        assert r.time_ms == 0.0

    def test_timed_run_accumulates_cycles(self, algo, small_random, executor):
        r = algo(small_random, executor)
        assert r.total_cycles > 0
        assert r.device is RADEON_HD_7950
        assert r.time_ms > 0
        assert r.total_cycles == pytest.approx(
            sum(it.cycles for it in r.iterations)
        )

    def test_timing_does_not_change_coloring(self, algo, small_random, executor):
        untimed = algo(small_random, seed=3)
        timed = algo(small_random, executor, seed=3)
        assert np.array_equal(untimed.colors, timed.colors)

    def test_colors_at_most_max_degree_plus_one_on_bounded_graphs(self, algo):
        # independent-set and speculative greedy all respect Δ+1 … except
        # max-min, whose pair-assignment can exceed it; allow 2Δ+2 there.
        g = gen.erdos_renyi(150, avg_degree=6, seed=4)
        r = algo(g)
        bound = g.max_degree + 1
        if r.algorithm in ("maxmin", "hybrid-switch"):
            bound = 2 * g.max_degree + 2
        assert r.num_colors <= bound


class TestMaxMinSpecifics:
    def test_two_independent_sets_per_iteration(self, small_random):
        r = maxmin_coloring(small_random, compact=False)
        # colors come in (2k, 2k+1) pairs by construction
        for it in r.iterations:
            assert it.newly_colored >= 1

    def test_compact_colors_dense(self, small_skewed):
        r = maxmin_coloring(small_skewed)
        used = np.unique(r.colors)
        assert used.tolist() == list(range(used.size))

    def test_stop_when_active_below(self, small_random):
        r = maxmin_coloring(small_random, stop_when_active_below=50, compact=False)
        remaining = int((r.colors == UNCOLORED).sum())
        assert 0 < remaining < 50

    def test_max_iterations_cap(self, small_random):
        r = maxmin_coloring(small_random, max_iterations=2, compact=False)
        assert r.num_iterations == 2
        assert np.any(r.colors == UNCOLORED)

    def test_compact_colors_helper(self):
        out = compact_colors(np.array([4, 4, 9, UNCOLORED, 0]))
        assert out.tolist() == [1, 1, 2, UNCOLORED, 0]

    def test_compact_colors_huge_values(self):
        # colors far above n rank by value, with equal colors equal ranks
        out = compact_colors(np.array([2**40, 5, UNCOLORED, 2**40, 2**31, 0]))
        assert out.tolist() == [3, 1, UNCOLORED, 3, 2, 0]
        assert out.dtype == np.int64

    def test_compact_colors_memory_bounded_by_n(self):
        colors = np.array([0, 2**26])
        tracemalloc.start()
        try:
            out = compact_colors(colors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.tolist() == [0, 1]
        assert peak < 1 << 20

    def test_recolor_accepts_huge_colors(self):
        g = gen.path(2)
        out = recolor_greedy(g, np.array([0, 2**40]), passes=1)
        assert out.colors.tolist() == [0, 1]


class TestJonesPlassmannSpecifics:
    def test_colors_competitive_with_greedy(self, small_random):
        jp = jones_plassmann_coloring(small_random).num_colors
        greedy = greedy_first_fit(small_random).num_colors
        assert jp <= 2 * greedy  # first-fit on independent sets stays close

    def test_fewer_colors_than_maxmin(self, small_skewed):
        # max-min burns two colors per round; JP packs first-fit
        jp = jones_plassmann_coloring(small_skewed).num_colors
        mm = maxmin_coloring(small_skewed).num_colors
        assert jp <= mm


class TestSpeculativeSpecifics:
    def test_active_set_strictly_shrinks(self, small_random):
        r = speculative_coloring(small_random)
        actives = [it.active_vertices for it in r.iterations]
        assert all(a > b for a, b in zip(actives, actives[1:]))

    def test_two_kernels_per_iteration(self, small_random, executor):
        r = speculative_coloring(small_random, executor)
        for it in r.iterations:
            assert len(it.kernels) == 2

    def test_far_fewer_iterations_than_jp(self, small_random):
        spec = speculative_coloring(small_random).num_iterations
        jp = jones_plassmann_coloring(small_random).num_iterations
        assert spec <= jp


class TestHybridSwitchSpecifics:
    def test_switch_records_phases(self, small_skewed, executor):
        r = hybrid_switch_coloring(small_skewed, executor, switch_fraction=0.25)
        assert r.extras["maxmin_iterations"] >= 1
        assert r.extras["tail_iterations"] >= 1
        assert (
            r.extras["maxmin_iterations"] + r.extras["tail_iterations"]
            == r.num_iterations
        )

    def test_zero_fraction_is_pure_maxmin(self, small_random):
        r = hybrid_switch_coloring(small_random, switch_fraction=0.0, seed=2)
        mm = maxmin_coloring(small_random, seed=2)
        assert np.array_equal(r.colors, mm.colors)
        assert r.extras["tail_iterations"] == 0

    def test_full_fraction_is_pure_speculative_phase(self, small_random):
        r = hybrid_switch_coloring(small_random, switch_fraction=1.0)
        assert r.extras["maxmin_iterations"] == 0

    def test_absolute_threshold_overrides(self, small_random):
        r = hybrid_switch_coloring(small_random, switch_below=10**9)
        assert r.extras["maxmin_iterations"] == 0

    def test_fewer_iterations_than_maxmin_on_skewed(self, small_skewed):
        sw = hybrid_switch_coloring(small_skewed, switch_fraction=0.2)
        mm = maxmin_coloring(small_skewed)
        assert sw.num_iterations < mm.num_iterations

    def test_rejects_bad_fraction(self, small_random):
        with pytest.raises(ValueError):
            hybrid_switch_coloring(small_random, switch_fraction=1.5)
