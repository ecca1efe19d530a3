"""Unit tests for the CSR graph substrate."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph


def reference_csr(us, vs, n):
    """Plain-Python CSR: canonical pair set expanded to sorted neighbor lists."""
    pairs = {(min(a, b), max(a, b)) for a, b in zip(us, vs, strict=True) if a != b}
    rows = [[] for _ in range(n)]
    for a, b in pairs:
        rows[a].append(b)
        rows[b].append(a)
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return indptr, [w for row in rows for w in sorted(row)]


@st.composite
def edge_lists(draw):
    """Edge lists with repeats in both orientations, self-loops and isolated tails."""
    n = draw(st.integers(1, 40))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    # re-add some edges, half of them reversed
    again = draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    pairs += [(b, a) if i % 2 else (a, b) for i, (a, b) in enumerate(again)]
    pairs = draw(st.permutations(pairs))
    explicit = draw(st.booleans())
    return [a for a, _ in pairs], [b for _, b in pairs], (n if explicit else None)


class TestFromEdges:
    def test_simple_triangle(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.num_directed_edges == 6

    def test_symmetrization(self):
        g = CSRGraph.from_edges([0], [1])
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [0]

    def test_duplicate_edges_merged(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 1, 0])
        assert g.num_edges == 1

    def test_reverse_duplicates_merged(self):
        g = CSRGraph.from_edges([0, 1], [1, 0])
        assert g.num_edges == 1

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges([0, 1, 2], [0, 2, 1], num_vertices=3)
        assert g.num_edges == 1
        assert g.degree(0) == 0

    def test_explicit_num_vertices_adds_isolated(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_endpoint_exceeding_num_vertices_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            CSRGraph.from_edges([0], [7], num_vertices=3)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CSRGraph.from_edges([-1], [0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            CSRGraph.from_edges([0, 1], [1])

    def test_empty_edge_list(self):
        g = CSRGraph.from_edges([], [], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_neighbor_lists_sorted(self):
        g = CSRGraph.from_edges([2, 2, 2], [3, 0, 1])
        assert list(g.neighbors(2)) == [0, 1, 3]

    @settings(max_examples=400, deadline=None)
    @given(edge_lists())
    @example(([], [], None))
    @example(([], [], 0))
    @example(([3, 3], [3, 3], None))  # self-loops only: 4 isolated vertices
    @example(([0, 4, 0], [4, 0, 4], 9))  # one edge both ways, isolated tail
    @example(([8, 7], [7, 8], 9))  # ids at n - 1
    def test_matches_python_reference(self, case):
        us, vs, num_vertices = case
        g = CSRGraph.from_edges(us, vs, num_vertices=num_vertices)
        n = num_vertices if num_vertices is not None else max(us + vs, default=-1) + 1
        indptr, indices = reference_csr(us, vs, n)
        assert g.indptr.tolist() == indptr
        assert g.indices.tolist() == indices
        assert g.indices.dtype == np.int32
        CSRGraph(g.indptr, g.indices)  # passes full validation

    @pytest.mark.parametrize(
        "us, vs, num_vertices, named",
        [
            ([], [], 2**31, 2**31),
            ([], [], 2**40, 2**40),
            ([], [], -1, -1),
            ([0], [1], -3, -3),
            ([0], [2**31], None, 2**31 + 1),  # inferred from the ids
        ],
    )
    def test_num_vertices_checked_before_allocating(self, us, vs, num_vertices, named):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"num_vertices={named} "):
                CSRGraph.from_edges(us, vs, num_vertices=num_vertices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # nothing of size num_vertices was allocated


class TestInvariantChecks:
    def test_valid_graph_passes(self):
        g = gen.clique(4)
        CSRGraph(g.indptr, g.indices)  # must not raise

    def test_bad_indptr_start(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(np.array([1, 2]), np.array([0], dtype=np.int32))

    def test_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1, 2]), np.array([1, 2], dtype=np.int32))

    def test_out_of_range_neighbor(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph(np.array([0, 1, 2]), np.array([5, 0], dtype=np.int32))

    def test_unsorted_neighbors_rejected(self):
        # vertex 0 has neighbors [2, 1] — unsorted
        with pytest.raises(ValueError):
            CSRGraph(
                np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0], dtype=np.int32)
            )

    def test_asymmetric_rejected(self):
        # edge 0->1 without 1->0
        with pytest.raises(ValueError, match="symmetric"):
            CSRGraph(np.array([0, 1, 1]), np.array([1], dtype=np.int32))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CSRGraph(np.array([0, 1, 1]), np.array([0], dtype=np.int32))

    def test_buffers_frozen(self):
        g = gen.clique(3)
        with pytest.raises(ValueError):
            g.indices[0] = 2
        with pytest.raises(ValueError):
            g.indptr[0] = 1

    def test_pickle_roundtrip_stays_frozen(self):
        g = gen.barabasi_albert(64, attach=3, seed=5)
        h = pickle.loads(pickle.dumps(g))
        assert h == g
        assert (h.indptr.dtype, h.indices.dtype) == (np.int64, np.int32)
        assert not h.indptr.flags.writeable
        assert not h.indices.flags.writeable


class TestAccessors:
    def test_degrees(self):
        g = gen.star(4)
        assert g.degree(0) == 4
        assert list(g.degrees) == [4, 1, 1, 1, 1]
        assert g.max_degree == 4
        assert g.mean_degree == pytest.approx(8 / 5)

    def test_has_edge(self):
        g = gen.path(4)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(0, 0)

    def test_vertex_range_checks(self):
        g = gen.path(3)
        with pytest.raises(IndexError):
            g.neighbors(3)
        with pytest.raises(IndexError):
            g.degree(-1)

    def test_edges_iteration_each_once(self):
        g = gen.clique(4)
        edges = list(g.edges())
        assert len(edges) == 6
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == 6

    def test_edge_array_matches_edges(self):
        g = gen.rmat(6, edge_factor=4, seed=0)
        u, v = g.edge_array()
        assert set(zip(u.tolist(), v.tolist())) == set(g.edges())

    def test_len_and_repr(self):
        g = gen.cycle(5)
        assert len(g) == 5
        assert "n=5" in repr(g)

    def test_empty_graph(self):
        g = CSRGraph.empty(3)
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert g.max_degree == 0
        assert g.mean_degree == 0.0


class TestTransforms:
    def test_permute_identity(self):
        g = gen.clique(4)
        assert g.permute(np.arange(4)) == g

    def test_permute_preserves_structure(self):
        g = gen.path(4)  # 0-1-2-3
        perm = np.array([3, 2, 1, 0])
        h = g.permute(perm)
        assert h.has_edge(3, 2) and h.has_edge(2, 1) and h.has_edge(1, 0)
        assert not h.has_edge(3, 1)
        assert h.num_edges == g.num_edges

    def test_permute_rejects_non_bijection(self):
        g = gen.path(3)
        with pytest.raises(ValueError, match="bijection"):
            g.permute(np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="length"):
            g.permute(np.array([0, 1]))

    def test_subgraph_induced(self):
        g = gen.clique(5)
        h = g.subgraph(np.array([0, 2, 4]))
        assert h.num_vertices == 3
        assert h.num_edges == 3  # still a clique

    def test_subgraph_drops_external_edges(self):
        g = gen.path(5)
        h = g.subgraph(np.array([0, 2, 4]))  # no adjacent pairs kept
        assert h.num_edges == 0

    def test_subgraph_rejects_duplicates(self):
        g = gen.path(3)
        with pytest.raises(ValueError, match="duplicates"):
            g.subgraph(np.array([0, 0]))

    def test_scipy_roundtrip(self):
        g = gen.rmat(6, edge_factor=4, seed=2)
        assert CSRGraph.from_scipy(g.to_scipy()) == g

    def test_networkx_roundtrip(self):
        nx = pytest.importorskip("networkx")
        g = gen.erdos_renyi(60, avg_degree=5, seed=1)
        assert CSRGraph.from_networkx(g.to_networkx()) == g

    def test_from_adjacency(self):
        g = CSRGraph.from_adjacency([[1, 2], [0], [0]])
        assert g.num_edges == 2
        assert g.degree(0) == 2

    def test_from_adjacency_mixed_rows(self):
        # generators, sets and numpy rows; an empty trailing row stays isolated
        rows = [iter([1, 2]), {0}, np.array([0, 1]), []]
        g = CSRGraph.from_adjacency(rows)
        assert g == CSRGraph.from_edges([0, 0, 2], [1, 2, 1], num_vertices=4)

    def test_from_scipy_rejects_rectangular(self):
        sp = pytest.importorskip("scipy.sparse")
        with pytest.raises(ValueError, match="square"):
            CSRGraph.from_scipy(sp.csr_matrix((2, 3)))


class TestEquality:
    def test_equal_graphs(self):
        a = gen.clique(4)
        b = CSRGraph.from_edges(*gen.clique(4).edge_array(), num_vertices=4)
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        assert gen.clique(4) != gen.path(4)
        assert gen.clique(4) != "not a graph"
