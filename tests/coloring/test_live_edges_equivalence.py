"""Per-sweep equivalence of the neighbor-count sweeps with full-graph reductions.

maxmin, edge-centric and jp decide local extrema from per-vertex counts
of uncolored neighbors above and below each priority
(``PriorityCounts``), never reducing a row; hybrid-switch inherits that
through maxmin. The reference loops here are the plain full-adjacency form of
the same algorithms: priorities of colored vertices masked to the
reduction's identity, ``neighbor_max``/``neighbor_min`` over every edge.
Colors, every sweep's record (counts, cycles, SIMD efficiency, kernel
names) and the total cycles must match exactly, on every tiny and small suite
dataset, for three seeds and every priority function.

The reference max-min doubles as hybrid-switch's first phase: the test
swaps it in for ``maxmin_coloring`` under the same speculative tail.
"""

import numpy as np
import pytest

import repro.coloring.hybrid as hybrid_mod
from repro.coloring._nbr import first_fit_colors, neighbor_max, neighbor_min
from repro.coloring.base import UNCOLORED, ColoringResult, IterationRecord
from repro.coloring.edge_centric import (
    _vertex_decision_cycles,
    edge_centric_maxmin,
    edge_kernel_cycles_per_item,
)
from repro.coloring.hybrid import hybrid_switch_coloring
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.maxmin import compact_colors, maxmin_coloring
from repro.coloring.priorities import make_priorities
from repro.engine.context import RunContext
from repro.harness import suite

SEEDS = (0, 1, 2)
PRIORITIES = ("random", "degree", "smallest_last")


def _seeds(priority):
    # smallest-last priorities ignore the seed: one run covers them
    return SEEDS[:1] if priority == "smallest_last" else SEEDS


def _maxmin_sweep(graph, priorities, uncolored):
    """Local maxima and minima among uncolored vertices, full-graph form."""
    nbr_hi = neighbor_max(graph, np.where(uncolored, priorities, -np.inf))
    nbr_lo = neighbor_min(graph, np.where(uncolored, priorities, np.inf))
    is_max = uncolored & (priorities > nbr_hi)
    is_min = uncolored & (priorities < nbr_lo) & ~is_max
    return is_max, is_min


def _edge_centric_timing(executor, degrees, active_ids, k):
    num_edge_items = int(degrees[active_ids].sum())
    names = (f"ec_edges_it{k}", f"ec_decide_it{k}")
    t1 = executor.time_uniform(
        num_edge_items,
        edge_kernel_cycles_per_item(executor),
        traffic_elements=2.0 * num_edge_items,
        name=names[0],
    )
    t2 = executor.time_uniform(
        int(active_ids.size),
        _vertex_decision_cycles(executor),
        traffic_elements=4.0 * active_ids.size,
        name=names[1],
    )
    return t1.cycles + t2.cycles, t1.simd_efficiency, names


def reference_maxmin(
    graph,
    executor,
    *,
    seed,
    priority="random",
    max_iterations=None,
    stop_when_active_below=0,
    compact=True,
    context=None,
    edge_centric=False,
):
    """Max-min (or its edge-centric timing) over the full adjacency."""
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = make_priorities(graph, priority, seed=seed)
    degrees = graph.degrees
    cap = max_iterations if max_iterations is not None else n + 1
    uncolored = np.ones(n, dtype=bool)
    iterations, total = [], 0.0
    k = 0
    while uncolored.any() and k < cap:
        active_ids = np.flatnonzero(uncolored)
        if active_ids.size < stop_when_active_below:
            break
        is_max, is_min = _maxmin_sweep(graph, priorities, uncolored)
        colors[is_max] = 2 * k
        colors[is_min] = 2 * k + 1
        uncolored &= ~(is_max | is_min)
        if edge_centric:
            cycles, eff, names = _edge_centric_timing(executor, degrees, active_ids, k)
        else:
            names = (f"maxmin_it{k}",)
            timing = executor.time_iteration(degrees[active_ids], name=names[0])
            cycles, eff = timing.cycles, timing.simd_efficiency
        total += cycles
        iterations.append(
            IterationRecord(
                index=k,
                active_vertices=int(active_ids.size),
                newly_colored=int(is_max.sum() + is_min.sum()),
                cycles=cycles,
                simd_efficiency=eff,
                kernels=names,
            )
        )
        k += 1
    return ColoringResult(
        algorithm="reference",
        colors=compact_colors(colors) if compact else colors,
        iterations=iterations,
        total_cycles=total,
    )


def reference_jp(graph, executor, *, seed, priority="random"):
    """Jones–Plassmann over the full adjacency."""
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = make_priorities(graph, priority, seed=seed)
    uncolored = np.ones(n, dtype=bool)
    iterations, total = [], 0.0
    k = 0
    while uncolored.any():
        active_ids = np.flatnonzero(uncolored)
        pr_hi = np.where(uncolored, priorities, -np.inf)
        winner_ids = np.flatnonzero(uncolored & (priorities > neighbor_max(graph, pr_hi)))
        colors[winner_ids] = first_fit_colors(graph, colors, winner_ids)
        uncolored[winner_ids] = False
        timing = executor.time_iteration(graph.degrees[active_ids], name=f"jp_it{k}")
        total += timing.cycles
        iterations.append(
            IterationRecord(
                index=k,
                active_vertices=int(active_ids.size),
                newly_colored=int(winner_ids.size),
                cycles=timing.cycles,
                simd_efficiency=timing.simd_efficiency,
                kernels=(f"jp_it{k}",),
            )
        )
        k += 1
    return ColoringResult(
        algorithm="reference", colors=colors, iterations=iterations, total_cycles=total
    )


def _executor():
    # a fresh context per run: no plan is shared between the two sides
    return RunContext(seed=0).executor()


def _assert_same(got, want):
    assert np.array_equal(got.colors, want.colors)
    assert got.iterations == want.iterations
    assert repr(got.total_cycles) == repr(want.total_cycles)


CELLS = [(name, scale) for scale in ("tiny", "small") for name in suite.suite_names()]


@pytest.fixture(scope="module", params=CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def graph(request):
    return suite.build(*request.param)


@pytest.mark.parametrize("priority", PRIORITIES)
def test_maxmin(graph, priority):
    for seed in _seeds(priority):
        got = maxmin_coloring(graph, _executor(), seed=seed, priority=priority)
        want = reference_maxmin(graph, _executor(), seed=seed, priority=priority)
        _assert_same(got, want)


@pytest.mark.parametrize("priority", PRIORITIES)
def test_edge_centric(graph, priority):
    for seed in _seeds(priority):
        got = edge_centric_maxmin(graph, _executor(), seed=seed, priority=priority)
        want = reference_maxmin(
            graph, _executor(), seed=seed, priority=priority, edge_centric=True
        )
        _assert_same(got, want)


@pytest.mark.parametrize("priority", PRIORITIES)
def test_jp(graph, priority):
    for seed in _seeds(priority):
        got = jones_plassmann_coloring(graph, _executor(), seed=seed, priority=priority)
        want = reference_jp(graph, _executor(), seed=seed, priority=priority)
        _assert_same(got, want)


def test_hybrid_switch(graph, monkeypatch):
    # hybrid-switch takes no priority argument; its max-min phase is the
    # only part that reduces over live edges, so the reference swaps in
    # the full-graph max-min under the same tail
    for seed in SEEDS:
        got = hybrid_switch_coloring(graph, _executor(), seed=seed, switch_fraction=0.2)
        with monkeypatch.context() as mp:
            mp.setattr(hybrid_mod, "maxmin_coloring", reference_maxmin)
            want = hybrid_switch_coloring(graph, _executor(), seed=seed, switch_fraction=0.2)
        assert got.extras == want.extras
        _assert_same(got, want)
