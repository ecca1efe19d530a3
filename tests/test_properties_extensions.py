"""Property-based tests (hypothesis) for the extension modules.

Covers the invariants added after the core reproduction: Jacobian
recovery exactness, donation conservation,
incremental-stream validity, reorder bijection properties, and the
detailed model's bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.coloring.incremental import IncrementalColoring
from repro.coloring.jacobian import (
    column_intersection_coloring,
    recover_jacobian,
    seed_matrix,
)
from repro.coloring.recolor import recolor_greedy
from repro.coloring.sequential import greedy_first_fit
from repro.graphs.csr import CSRGraph
from repro.graphs.reorder import bfs_order, degree_order, random_order, rcm_order
from repro.gpusim.detailed import DetailedParams, simulate_cu_detailed
from repro.loadbalance.donation import DonationConfig, simulate_work_donation


@st.composite
def edge_lists(draw, max_vertices=30, max_edges=90):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    u = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    v = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    return n, u, v


@st.composite
def random_graphs(draw, max_vertices=30, max_edges=90):
    n, u, v = draw(edge_lists(max_vertices, max_edges))
    return CSRGraph.from_edges(u, v, num_vertices=n)


class TestJacobianProperties:
    @given(
        st.integers(1, 40),
        st.integers(1, 15),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_recovery_exact(self, rows, cols, nnz, seed):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        r = np.repeat(np.arange(rows), nnz)
        c = rng.integers(0, cols, size=r.size)
        v = rng.normal(size=r.size)
        J = sp.csr_matrix((v, (r, c)), shape=(rows, cols))
        J.sum_duplicates()
        pattern = J != 0
        colors = column_intersection_coloring(pattern)
        rec = recover_jacobian(pattern, J @ seed_matrix(colors), colors)
        assert abs(rec - J).max() < 1e-10


class TestDonationProperties:
    @given(
        arrays(
            np.float64,
            st.integers(1, 40),
            elements=st.floats(0.1, 500, allow_nan=False),
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_everything_executes_once(self, costs, workers):
        owner = np.arange(costs.size) % workers
        res = simulate_work_donation(
            costs, owner, DonationConfig(num_workers=workers)
        )
        assert res.chunks_executed.sum() == costs.size
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())
        assert res.makespan_cycles >= costs.max() * (1 - 1e-9)


class TestIncrementalProperties:
    @given(random_graphs(max_vertices=20), st.integers(0, 2**31 - 1), st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_stream_preserves_validity(self, g, seed, extra):
        inc = IncrementalColoring(g)
        rng = np.random.default_rng(seed)
        for _ in range(extra):
            u, v = rng.integers(0, g.num_vertices, size=2)
            if u != v:
                inc.add_edge(int(u), int(v))
        assert inc.is_valid()


class TestReorderProperties:
    @given(random_graphs(), st.sampled_from(["bfs", "rcm", "degree", "random"]))
    @settings(max_examples=30, deadline=None)
    def test_isomorphism_invariants(self, g, kind):
        fn = {
            "bfs": bfs_order,
            "rcm": rcm_order,
            "degree": degree_order,
            "random": lambda gr: random_order(gr, seed=0),
        }[kind]
        h = g.permute(fn(g))
        assert h.num_edges == g.num_edges
        assert np.array_equal(np.sort(h.degrees), np.sort(g.degrees))
        # coloring sizes agree for order-insensitive bounds
        assert greedy_first_fit(h).num_colors <= g.max_degree + 1


class TestRecolorProperties:
    @given(random_graphs(), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_never_increases_colors(self, g, seed):
        from repro.coloring.maxmin import maxmin_coloring

        base = maxmin_coloring(g, seed=seed)
        out = recolor_greedy(g, base.colors, passes=2)
        out.validate(g)
        assert out.num_colors <= base.num_colors


class TestDetailedModelProperties:
    @given(
        arrays(
            np.float64,
            st.integers(1, 20),
            elements=st.floats(1.0, 500.0, allow_nan=False),
        ),
        st.integers(0, 8),
        st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, comp, accesses, residency):
        acc = np.full(comp.size, accesses)
        p = DetailedParams(resident_waves_per_simd=residency, mlp=2.0)
        r = simulate_cu_detailed(comp, acc, p)
        # never faster than pure issue; never slower than fully serial
        assert r.cycles >= comp.sum() * (1 - 1e-9)
        serial = comp.sum() + comp.size * accesses * p.effective_latency
        assert r.cycles <= serial * (1 + 1e-9)
        assert r.issue_busy_cycles == pytest.approx(comp.sum())
