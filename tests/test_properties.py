"""Property-based tests (hypothesis) on core invariants.

These pin down the invariants the whole system rests on:
* CSR construction normalizes any edge list into a proper undirected
  simple graph;
* every coloring algorithm produces a proper complete coloring on any
  graph;
* the lockstep cost law and the schedulers conserve work and respect
  their lower bounds;
* the work-stealing runtime executes everything exactly once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.coloring._nbr import first_fit_colors, neighbor_max
from repro.coloring.base import UNCOLORED
from repro.coloring.hybrid import hybrid_switch_coloring
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.maxmin import compact_colors, maxmin_coloring
from repro.coloring.sequential import dsatur, greedy_first_fit, smallest_last
from repro.coloring.speculative import speculative_coloring
from repro.graphs.csr import CSRGraph
from repro.gpusim.scheduler import greedy_schedule, workgroup_costs
from repro.gpusim.wavefront import simd_efficiency, wavefront_costs, wavefront_sums
from repro.loadbalance.partition import (
    chunk_costs,
    chunk_ranges,
    cost_balanced_partition,
    static_partition,
)
from repro.loadbalance.workstealing import StealingConfig, simulate_work_stealing

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def edge_lists(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    u = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    v = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    return n, u, v


@st.composite
def random_graphs(draw, max_vertices=40, max_edges=120):
    n, u, v = draw(edge_lists(max_vertices, max_edges))
    return CSRGraph.from_edges(u, v, num_vertices=n)


costs_arrays = arrays(
    np.float64,
    st.integers(0, 200),
    elements=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


# ---------------------------------------------------------------------------
# CSR invariants
# ---------------------------------------------------------------------------


class TestCSRProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_construction_normalizes(self, data):
        n, u, v = data
        g = CSRGraph.from_edges(u, v, num_vertices=n)
        # re-validating enforces: sorted unique neighbors, symmetry, no loops
        CSRGraph(g.indptr, g.indices)
        assert g.num_vertices == n
        assert int(g.degrees.sum()) == 2 * g.num_edges

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_idempotent_rebuild(self, data):
        n, u, v = data
        g = CSRGraph.from_edges(u, v, num_vertices=n)
        eu, ev = g.edge_array()
        assert CSRGraph.from_edges(eu, ev, num_vertices=n) == g

    @given(random_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_preserves_edge_count(self, g, seed):
        perm = np.random.default_rng(seed).permutation(g.num_vertices)
        h = g.permute(perm)
        assert h.num_edges == g.num_edges
        assert np.array_equal(np.sort(h.degrees), np.sort(g.degrees))


# ---------------------------------------------------------------------------
# coloring invariants
# ---------------------------------------------------------------------------

ALL_ALGOS = [
    greedy_first_fit,
    smallest_last,
    dsatur,
    maxmin_coloring,
    jones_plassmann_coloring,
    speculative_coloring,
    hybrid_switch_coloring,
]


class TestColoringProperties:
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda f: f.__name__)
    @given(g=random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_always_proper_and_complete(self, algo, g):
        algo(g).validate(g)

    @given(random_graphs(), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_coloring_invariant_under_priorities(self, g, seed):
        # any seed yields a valid coloring with a consistent iteration ledger
        r = maxmin_coloring(g, seed=seed)
        r.validate(g)
        assert sum(it.newly_colored for it in r.iterations) == g.num_vertices

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_greedy_respects_delta_plus_one(self, g):
        assert greedy_first_fit(g).num_colors <= g.max_degree + 1

    @given(random_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_first_fit_mex_property(self, g, seed):
        rng = np.random.default_rng(seed)
        colors = rng.integers(-1, 6, g.num_vertices)
        verts = np.arange(g.num_vertices, dtype=np.int64)
        out = first_fit_colors(g, colors, verts)
        for v in range(g.num_vertices):
            nbr_colors = set(colors[g.neighbors(v)].tolist())
            assert out[v] not in nbr_colors  # it's a free color
            assert all(c in nbr_colors for c in range(out[v]))  # it's minimal

    @given(random_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_neighbor_max_matches_bruteforce(self, g, seed):
        vals = np.random.default_rng(seed).random(g.num_vertices)
        out = neighbor_max(g, vals)
        for v in range(g.num_vertices):
            nbrs = g.neighbors(v)
            expect = vals[nbrs].max() if nbrs.size else -np.inf
            assert out[v] == expect

    @given(
        arrays(
            np.int64,
            st.integers(1, 50),
            elements=st.integers(-1, 20),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_compact_colors_preserves_classes(self, colors):
        out = compact_colors(colors)
        # same partition into color classes, sentinel preserved
        assert np.array_equal(out == UNCOLORED, colors == UNCOLORED)
        for c in np.unique(colors[colors != UNCOLORED]):
            mask = colors == c
            assert np.unique(out[mask]).size == 1
        used = np.unique(out[out != UNCOLORED])
        assert used.tolist() == list(range(used.size))
        # order-preserving: each color becomes its rank among the used ones
        ranks = np.searchsorted(np.unique(colors[colors != UNCOLORED]), colors)
        assert np.array_equal(out, np.where(colors == UNCOLORED, UNCOLORED, ranks))


# ---------------------------------------------------------------------------
# simulator invariants
# ---------------------------------------------------------------------------


class TestSimulatorProperties:
    @given(costs_arrays, st.sampled_from([1, 2, 4, 16, 64]))
    @settings(max_examples=60, deadline=None)
    def test_lockstep_bounds(self, costs, wf):
        peaks = wavefront_costs(costs, wf)
        sums = wavefront_sums(costs, wf)
        assert peaks.size == sums.size
        # max ≤ sum ≤ wf * max, per wavefront
        assert np.all(peaks <= sums * (1 + 1e-9) + 1e-9)
        assert np.all(sums <= wf * peaks * (1 + 1e-9) + 1e-9)
        eff = simd_efficiency(costs, wf)
        assert 0.0 <= eff <= 1.0 + 1e-12

    @given(costs_arrays, st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_greedy_schedule_conserves_and_bounds(self, costs, pipes):
        _, busy = greedy_schedule(costs, pipes)
        assert busy.sum() == pytest.approx(costs.sum())
        if costs.size:
            makespan = busy.max()
            lower = max(costs.max(), costs.sum() / pipes)
            assert makespan >= lower * (1 - 1e-9)
            # greedy (list scheduling) is a 2-approximation
            assert makespan <= 2 * lower * (1 + 1e-9)

    @given(costs_arrays, st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_workgroup_costs_bounds(self, wf_costs, group, pipes):
        wg = workgroup_costs(wf_costs, group, pipes)
        if wf_costs.size:
            assert wg.size == -(-wf_costs.size // group)
            assert wg.sum() >= wf_costs.max() * (1 - 1e-9)
            assert wg.sum() <= wf_costs.sum() * (1 + 1e-9) or group <= pipes


# ---------------------------------------------------------------------------
# partitioning and stealing invariants
# ---------------------------------------------------------------------------


class TestLoadBalanceProperties:
    @given(st.integers(0, 500), st.integers(1, 64))
    def test_chunk_ranges_cover(self, n, size):
        r = chunk_ranges(n, size)
        assert (r[:, 1] - r[:, 0]).sum() == n
        if n:
            assert r[0, 0] == 0 and r[-1, 1] == n

    @given(st.integers(0, 500), st.integers(1, 64))
    def test_static_partition_covers(self, n, workers):
        r = static_partition(n, workers)
        assert r.shape == (workers, 2)
        assert (r[:, 1] - r[:, 0]).sum() == n

    @given(costs_arrays, st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_cost_balanced_partition_covers(self, costs, workers):
        r = cost_balanced_partition(costs, workers)
        assert (r[:, 1] - r[:, 0]).sum() == costs.size
        loads = chunk_costs(costs, r)
        assert loads.sum() == pytest.approx(costs.sum())

    @given(
        arrays(
            np.float64,
            st.integers(1, 60),
            elements=st.floats(0.1, 1000, allow_nan=False),
        ),
        st.integers(1, 8),
        st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_stealing_executes_everything_once(self, costs, workers, seed):
        owner = np.arange(costs.size) % workers
        cfg = StealingConfig(num_workers=workers, seed=seed)
        res = simulate_work_stealing(costs, owner, cfg)
        assert res.chunks_executed.sum() == costs.size
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())
        assert res.makespan_cycles >= costs.max() - 1e-9
