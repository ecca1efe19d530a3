"""Unit tests for the vectorized neighborhood primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.coloring._nbr import (
    PriorityCounts,
    first_fit_colors,
    neighbor_max,
    neighbor_min,
    neighbor_reduce,
)
from repro.coloring.base import UNCOLORED
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph


def brute_neighbor_max(graph, values):
    out = np.full(graph.num_vertices, -np.inf)
    for v in range(graph.num_vertices):
        nbrs = graph.neighbors(v)
        if nbrs.size:
            out[v] = values[nbrs].max()
    return out


def brute_first_fit(graph, colors, vertices):
    out = []
    for v in vertices:
        used = {int(colors[w]) for w in graph.neighbors(int(v))}
        c = 0
        while c in used:
            c += 1
        out.append(c)
    return np.array(out)


class TestNeighborReduce:
    def test_path_max(self):
        g = gen.path(4)
        vals = np.array([10.0, 0.0, 5.0, 7.0])
        assert neighbor_max(g, vals).tolist() == [0.0, 10.0, 7.0, 5.0]

    def test_path_min(self):
        g = gen.path(3)
        vals = np.array([3.0, 1.0, 2.0])
        assert neighbor_min(g, vals).tolist() == [1.0, 2.0, 1.0]

    def test_isolated_vertex_gets_fill(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=3)
        out = neighbor_max(g, np.array([5.0, 6.0, 7.0]))
        assert out[2] == -np.inf

    def test_trailing_isolated_vertices(self):
        # reduceat's empty-row quirk lives at the array end — cover it
        g = CSRGraph.from_edges([0], [1], num_vertices=5)
        out = neighbor_min(g, np.arange(5, dtype=float))
        assert out[2] == np.inf and out[3] == np.inf and out[4] == np.inf
        assert out[0] == 1.0

    def test_matches_brute_force(self):
        g = gen.rmat(7, edge_factor=5, seed=3)
        rng = np.random.default_rng(0)
        vals = rng.random(g.num_vertices)
        assert np.array_equal(neighbor_max(g, vals), brute_neighbor_max(g, vals))

    def test_empty_graph(self):
        g = CSRGraph.empty(4)
        assert np.all(neighbor_max(g, np.zeros(4)) == -np.inf)

    def test_custom_ufunc(self):
        g = gen.star(3)
        out = neighbor_reduce(g, np.array([1.0, 2.0, 3.0, 4.0]), np.add, 0.0)
        assert out[0] == 9.0  # sum of leaves

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            neighbor_max(gen.path(3), np.zeros(2))


@st.composite
def graphs_priorities_batches(draw, max_vertices=30, max_edges=90):
    """A random graph, tie-heavy priorities, and a sequence of retire batches.

    Priorities come from a small integer set so ties occur. A batch is
    any set of vertices, so it may repeat ids retired by an earlier
    batch or hold vertices whose neighbors are all retired already.
    """
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    u = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    v = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    priorities = draw(arrays(np.float64, n, elements=st.integers(0, 3).map(float)))
    batches = draw(st.lists(st.sets(st.integers(0, n - 1)).map(sorted), max_size=6))
    return CSRGraph.from_edges(u, v, num_vertices=n), priorities, batches


def brute_counts(graph, priorities, uncolored):
    """Per vertex: uncolored neighbors with priority >= and <= its own."""
    higher = np.zeros(graph.num_vertices, dtype=np.int64)
    lower = np.zeros(graph.num_vertices, dtype=np.int64)
    for v in range(graph.num_vertices):
        nbrs = graph.neighbors(v)
        p = priorities[nbrs[uncolored[nbrs]]]
        higher[v] = int((p >= priorities[v]).sum())
        lower[v] = int((p <= priorities[v]).sum())
    return higher, lower


def assert_counts_exact(counts, graph, priorities, uncolored):
    """Counts equal brute force everywhere and decide masked extrema."""
    higher, lower = brute_counts(graph, priorities, uncolored)
    # exact on every row, colored rows included
    assert np.array_equal(counts.higher, higher)
    assert np.array_equal(counts.lower, lower)
    nbr_hi = neighbor_max(graph, np.where(uncolored, priorities, -np.inf))
    nbr_lo = neighbor_min(graph, np.where(uncolored, priorities, np.inf))
    is_max, is_min = counts.higher == 0, counts.lower == 0
    assert np.array_equal(is_max[uncolored], (priorities > nbr_hi)[uncolored])
    assert np.array_equal(is_min[uncolored], (priorities < nbr_lo)[uncolored])


class TestPriorityCounts:
    @given(graphs_priorities_batches())
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_after_every_batch(self, data):
        g, priorities, batches = data
        counts = PriorityCounts(g, priorities)
        uncolored = np.ones(g.num_vertices, dtype=bool)
        assert_counts_exact(counts, g, priorities, uncolored)
        for batch in batches:
            ids = np.array(batch, dtype=np.int64)
            uncolored[ids] = False  # vertices only ever get colored
            counts.retire(ids)
            assert_counts_exact(counts, g, priorities, uncolored)

    def test_ties_count_on_both_sides(self):
        g = gen.path(3)
        counts = PriorityCounts(g, np.array([1.0, 1.0, 0.0]))
        assert counts.higher.tolist() == [1, 1, 1]
        assert counts.lower.tolist() == [1, 2, 0]

    def test_edgeless_graph(self):
        counts = PriorityCounts(CSRGraph.empty(4), np.arange(4.0))
        assert np.all(counts.higher == 0) and np.all(counts.lower == 0)
        counts.retire(np.array([0, 2]))
        counts.retire(np.array([], dtype=np.int64))
        assert np.all(counts.higher == 0) and np.all(counts.lower == 0)

    def test_isolated_vertices_are_extrema(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], num_vertices=6)
        counts = PriorityCounts(g, np.arange(6.0))
        assert counts.higher.tolist() == [1, 1, 0, 0, 0, 0]
        assert counts.lower.tolist() == [0, 1, 1, 0, 0, 0]

    def test_all_vertices_retired(self):
        g = gen.rmat(6, edge_factor=4, seed=2)
        counts = PriorityCounts(g, np.arange(g.num_vertices, dtype=float))
        counts.retire(np.arange(g.num_vertices))
        assert np.all(counts.higher == 0) and np.all(counts.lower == 0)

    def test_row_with_all_neighbors_retired(self):
        g = gen.star(3)  # hub 0, leaves 1..3
        counts = PriorityCounts(g, np.array([5.0, 9.0, 1.0, 7.0]))
        assert (counts.higher[0], counts.lower[0]) == (2, 1)
        counts.retire(np.array([1, 2, 3]))
        counts.retire(np.array([2, 3]))  # already retired: no effect
        assert (counts.higher[0], counts.lower[0]) == (0, 0)


class TestFirstFitColors:
    def test_all_uncolored_neighbors_gives_zero(self):
        g = gen.path(3)
        colors = np.full(3, UNCOLORED)
        out = first_fit_colors(g, colors, np.array([1]))
        assert out.tolist() == [0]

    def test_mex_skips_used(self):
        g = gen.star(3)
        colors = np.array([UNCOLORED, 0, 1, 3])
        out = first_fit_colors(g, colors, np.array([0]))
        assert out.tolist() == [2]

    def test_mex_dense_neighborhood(self):
        g = gen.star(3)
        colors = np.array([UNCOLORED, 0, 1, 2])
        assert first_fit_colors(g, colors, np.array([0])).tolist() == [3]

    def test_color_above_degree_ignored(self):
        # vertex of degree 1 considers only colors {0, 1}
        g = gen.path(2)
        colors = np.array([UNCOLORED, 100])
        assert first_fit_colors(g, colors, np.array([0])).tolist() == [0]

    def test_result_bounded_by_degree(self):
        g = gen.rmat(7, edge_factor=5, seed=1)
        rng = np.random.default_rng(1)
        colors = rng.integers(0, 5, g.num_vertices)
        verts = np.arange(g.num_vertices)
        out = first_fit_colors(g, colors, verts)
        assert np.all(out <= g.degrees[verts])
        assert np.all(out >= 0)

    def test_matches_brute_force(self):
        g = gen.erdos_renyi(150, avg_degree=7, seed=5)
        rng = np.random.default_rng(2)
        colors = rng.integers(-1, 4, g.num_vertices)
        verts = rng.choice(g.num_vertices, size=60, replace=False)
        assert np.array_equal(
            first_fit_colors(g, colors, verts), brute_first_fit(g, colors, verts)
        )

    def test_empty_selection(self):
        g = gen.path(3)
        out = first_fit_colors(g, np.zeros(3, dtype=int), np.array([], dtype=int))
        assert out.size == 0

    def test_isolated_vertex(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=3)
        out = first_fit_colors(g, np.full(3, UNCOLORED), np.array([2]))
        assert out.tolist() == [0]

    def test_out_of_range_vertex_rejected(self):
        g = gen.path(3)
        with pytest.raises(ValueError):
            first_fit_colors(g, np.zeros(3, dtype=int), np.array([7]))

    def test_wrong_colors_shape_rejected(self):
        g = gen.path(3)
        with pytest.raises(ValueError):
            first_fit_colors(g, np.zeros(2, dtype=int), np.array([0]))
