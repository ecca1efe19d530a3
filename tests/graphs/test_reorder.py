"""Unit tests for vertex reordering."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.reorder import (
    _positions_to_perm,
    bandwidth,
    bfs_order,
    degree_order,
    random_order,
    rcm_order,
)
from repro.harness.suite import build, suite_names

ORDERS = [bfs_order, rcm_order, degree_order, random_order]


@pytest.mark.parametrize("order_fn", ORDERS, ids=lambda f: f.__name__)
class TestPermutationContract:
    def test_is_permutation(self, order_fn):
        g = gen.rmat(7, edge_factor=5, seed=2)
        perm = order_fn(g)
        assert sorted(perm.tolist()) == list(range(g.num_vertices))

    def test_preserves_structure(self, order_fn):
        g = gen.erdos_renyi(150, avg_degree=6, seed=1)
        h = g.permute(order_fn(g))
        assert h.num_edges == g.num_edges
        assert np.array_equal(np.sort(h.degrees), np.sort(g.degrees))

    def test_handles_disconnected(self, order_fn):
        g = CSRGraph.from_edges([0, 3], [1, 4], num_vertices=6)
        perm = order_fn(g)
        assert sorted(perm.tolist()) == list(range(6))

    def test_empty_graph(self, order_fn):
        g = CSRGraph.empty(4)
        assert sorted(order_fn(g).tolist()) == [0, 1, 2, 3]


class TestBfsOrder:
    def test_path_from_end_is_identity_like(self):
        g = gen.path(5)
        perm = bfs_order(g, source=0)
        # BFS from 0 on a path visits in order → identity permutation
        assert perm.tolist() == [0, 1, 2, 3, 4]

    def test_source_respected(self):
        g = gen.path(5)
        perm = bfs_order(g, source=4)
        assert perm[4] == 0  # the source becomes vertex 0


def reference_bfs_order(graph: CSRGraph, *, source: int | None = None) -> np.ndarray:
    """The vertex-at-a-time FIFO search :func:`bfs_order` must reproduce."""
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    sequence = np.empty(n, dtype=np.int64)
    pos = 0
    queue: deque[int] = deque()
    seeds = [source] if source is not None else []
    seed_iter = iter(range(n))

    def next_seed() -> int | None:
        for s in seeds:
            if not visited[s]:
                return s
        for s in seed_iter:
            if not visited[s]:
                return s
        return None

    while pos < n:
        s = next_seed()
        if s is None:
            break
        visited[s] = True
        queue.append(s)
        while queue:
            v = queue.popleft()
            sequence[pos] = v
            pos += 1
            for w in graph.neighbors(v):
                w = int(w)
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    return _positions_to_perm(sequence)


@st.composite
def scattered_graphs(draw):
    """Graphs with isolated vertices and many small components."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(0, 2 * n))
    ends = st.integers(0, n - 1)
    u = draw(st.lists(ends, min_size=m, max_size=m))
    v = draw(st.lists(ends, min_size=m, max_size=m))
    source = draw(st.none() | ends)
    return CSRGraph.from_edges(u, v, num_vertices=n), source


class TestBfsMatchesQueueOrder:
    @settings(max_examples=300, deadline=None)
    @given(scattered_graphs())
    def test_hypothesis_graphs(self, case):
        g, source = case
        assert np.array_equal(
            bfs_order(g, source=source), reference_bfs_order(g, source=source)
        )

    @pytest.mark.parametrize("dataset", suite_names())
    def test_suite_graphs(self, dataset):
        g = build(dataset, "small")
        assert np.array_equal(bfs_order(g), reference_bfs_order(g))
        hub = int(np.argmax(g.degrees))
        assert np.array_equal(
            bfs_order(g, source=hub), reference_bfs_order(g, source=hub)
        )


class TestRcmOrder:
    def test_reduces_bandwidth_on_shuffled_mesh(self):
        mesh = gen.grid_2d(20, 20)
        shuffled = mesh.permute(random_order(mesh, seed=3))
        improved = shuffled.permute(rcm_order(shuffled))
        assert bandwidth(improved) < 0.5 * bandwidth(shuffled)

    def test_idempotent_quality(self):
        g = gen.delaunay_mesh(300, seed=1)
        once = g.permute(rcm_order(g))
        twice = once.permute(rcm_order(once))
        assert bandwidth(twice) <= 1.5 * bandwidth(once)


class TestDegreeOrder:
    def test_descending_puts_hub_first(self):
        g = gen.star(6)
        perm = degree_order(g)
        assert perm[0] == 0  # hub keeps position 0

    def test_ascending(self):
        g = gen.star(6)
        perm = degree_order(g, descending=False)
        assert perm[0] == 6  # hub goes last

    def test_new_labels_sorted_by_degree(self):
        g = gen.rmat(6, edge_factor=4, seed=1)
        h = g.permute(degree_order(g))
        d = h.degrees
        assert all(d[i] >= d[i + 1] for i in range(len(d) - 1))


class TestRandomOrder:
    def test_seeded(self):
        g = gen.path(50)
        assert np.array_equal(random_order(g, seed=1), random_order(g, seed=1))
        assert not np.array_equal(random_order(g, seed=1), random_order(g, seed=2))


class TestBandwidth:
    def test_path_is_one(self):
        assert bandwidth(gen.path(10)) == 1

    def test_cycle_wraps(self):
        assert bandwidth(gen.cycle(10)) == 9  # edge (0, 9)

    def test_edgeless_zero(self):
        assert bandwidth(CSRGraph.empty(5)) == 0


class TestColoringInvariance:
    def test_color_count_invariant_under_relabeling(self):
        # relabeled graph + relabeled seed-priorities gives a coloring of
        # the same size class for structure-independent algorithms
        from repro.coloring.sequential import dsatur

        g = gen.erdos_renyi(120, avg_degree=7, seed=4)
        h = g.permute(random_order(g, seed=9))
        assert abs(dsatur(g).num_colors - dsatur(h).num_colors) <= 1
