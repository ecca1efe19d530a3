"""The active-list sweeps against the full-length mask loops they replaced.

maxmin, edge-centric and jp keep the ascending list of uncolored ids and
shrink it each sweep; the max/min tests, color writes and retirements
read only that list. The ``_reference_*`` loops below are the previous
form: a full-length ``uncolored`` mask, every test over all ``n``
vertices, ``flatnonzero`` for the active and newly colored ids. Colors,
every ``IterationRecord`` and the ``repr`` of the total cycles must match
exactly, including maxmin's early exits (``stop_when_active_below``, the
hybrid-switch hand-off, and ``max_iterations``) and ``compact=False``.
"""

import numpy as np
import pytest

from repro.coloring._nbr import PriorityCounts
from repro.coloring.base import UNCOLORED, ColoringResult
from repro.coloring.edge_centric import (
    _vertex_decision_cycles,
    edge_centric_maxmin,
    edge_kernel_cycles_per_item,
)
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.kernels import SweepLog
from repro.coloring.maxmin import compact_colors, maxmin_coloring
from repro.coloring.priorities import make_priorities
from repro.engine.context import RunContext
from repro.harness import suite

SEEDS = (0, 3, 11)
PRIORITIES = ("random", "degree", "smallest_last")


def _reference_maxmin(
    graph,
    executor,
    *,
    seed,
    priority="random",
    max_iterations=None,
    stop_when_active_below=0,
    compact=True,
):
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = make_priorities(graph, priority, seed=seed)
    degrees = graph.degrees
    log = SweepLog(executor)
    cap = max_iterations if max_iterations is not None else n + 1

    uncolored = np.ones(n, dtype=bool)
    counts = PriorityCounts(graph, priorities)
    k = 0
    while uncolored.any():
        if k >= cap:
            break
        active_ids = np.flatnonzero(uncolored)
        if active_ids.size < stop_when_active_below:
            break
        is_max = uncolored & (counts.higher == 0)
        is_min = uncolored & (counts.lower == 0) & ~is_max
        colors[is_max] = 2 * k
        colors[is_min] = 2 * k + 1
        newly = np.flatnonzero(is_max | is_min)
        uncolored[newly] = False
        counts.retire(newly)

        log.sweep(k, active_ids.size, newly.size)
        log.vertices(f"maxmin_it{k}", degrees, active_ids)
        k += 1

    iterations, total_cycles = log.finish()
    return ColoringResult(
        algorithm="maxmin",
        colors=compact_colors(colors) if compact else colors,
        iterations=iterations,
        total_cycles=total_cycles,
    )


def _reference_edge_centric(graph, executor, *, seed, priority="random"):
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = make_priorities(graph, priority, seed=seed)
    degrees = graph.degrees
    log = SweepLog(executor)
    edge_cycles = edge_kernel_cycles_per_item(executor)
    decide_cycles = _vertex_decision_cycles(executor)

    uncolored = np.ones(n, dtype=bool)
    counts = PriorityCounts(graph, priorities)
    k = 0
    while uncolored.any():
        active_ids = np.flatnonzero(uncolored)
        is_max = uncolored & (counts.higher == 0)
        is_min = uncolored & (counts.lower == 0) & ~is_max
        colors[is_max] = 2 * k
        colors[is_min] = 2 * k + 1
        newly = np.flatnonzero(is_max | is_min)
        uncolored[newly] = False
        counts.retire(newly)

        log.sweep(k, active_ids.size, newly.size)
        num_edge_items = int(degrees[active_ids].sum())
        log.uniform(
            f"ec_edges_it{k}",
            num_edge_items,
            edge_cycles,
            traffic_elements=2.0 * num_edge_items,
        )
        log.uniform(
            f"ec_decide_it{k}",
            int(active_ids.size),
            decide_cycles,
            traffic_elements=4.0 * active_ids.size,
        )
        k += 1

    iterations, total_cycles = log.finish()
    return ColoringResult(
        algorithm="edge-centric-maxmin",
        colors=compact_colors(colors),
        iterations=iterations,
        total_cycles=total_cycles,
    )


def _reference_jp(graph, executor, *, seed, priority="random"):
    backend = RunContext(seed=0).backend
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = make_priorities(graph, priority, seed=seed)
    degrees = graph.degrees
    log = SweepLog(executor)

    uncolored = np.ones(n, dtype=bool)
    counts = PriorityCounts(graph, priorities)
    k = 0
    while uncolored.any():
        active_ids = np.flatnonzero(uncolored)
        winner_ids = np.flatnonzero(uncolored & (counts.higher == 0))
        colors[winner_ids] = backend.first_fit_colors(graph, colors, winner_ids)
        uncolored[winner_ids] = False
        counts.retire(winner_ids)

        log.sweep(k, active_ids.size, winner_ids.size)
        log.vertices(f"jp_it{k}", degrees, active_ids)
        k += 1

    iterations, total_cycles = log.finish()
    return ColoringResult(
        algorithm="jones-plassmann",
        colors=colors,
        iterations=iterations,
        total_cycles=total_cycles,
    )


def _executor():
    # a fresh context per run: the two sides share no state
    return RunContext(seed=0).executor(schedule="stealing")


def _assert_same(got, want):
    assert got.colors.dtype == want.colors.dtype
    assert np.array_equal(got.colors, want.colors)
    assert got.iterations == want.iterations
    assert repr(got.total_cycles) == repr(want.total_cycles)


def _seeds(priority):
    # smallest-last priorities ignore the seed: one run covers them
    return SEEDS[:1] if priority == "smallest_last" else SEEDS


CELLS = [
    (name, scale) for scale in ("tiny", "small") for name in ("rmat", "powerlaw", "grid2d")
]


@pytest.fixture(scope="module", params=CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def graph(request):
    return suite.build(*request.param)


@pytest.mark.parametrize("priority", PRIORITIES)
def test_maxmin(graph, priority):
    for seed in _seeds(priority):
        got = maxmin_coloring(graph, _executor(), seed=seed, priority=priority)
        want = _reference_maxmin(graph, _executor(), seed=seed, priority=priority)
        _assert_same(got, want)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"stop_when_active_below": 64},
        # hybrid-switch's hand-off: below 20% of the vertices, uncompacted
        {"stop_when_active_below": "fifth", "compact": False},
        # the whole vertex set is below the threshold: no sweep at all
        {"stop_when_active_below": "all"},
        {"max_iterations": 3},
        {"max_iterations": 0},
        {"compact": False},
        {"compact": False, "max_iterations": 5},
    ],
    ids=repr,
)
def test_maxmin_early_exits(graph, kwargs):
    stop = {"fifth": int(np.ceil(0.2 * graph.num_vertices)), "all": graph.num_vertices + 1}
    if kwargs.get("stop_when_active_below") in stop:
        kwargs = {**kwargs, "stop_when_active_below": stop[kwargs["stop_when_active_below"]]}
    for seed in SEEDS:
        got = maxmin_coloring(graph, _executor(), seed=seed, **kwargs)
        want = _reference_maxmin(graph, _executor(), seed=seed, **kwargs)
        _assert_same(got, want)


@pytest.mark.parametrize("priority", PRIORITIES)
def test_edge_centric(graph, priority):
    for seed in _seeds(priority):
        got = edge_centric_maxmin(graph, _executor(), seed=seed, priority=priority)
        want = _reference_edge_centric(graph, _executor(), seed=seed, priority=priority)
        _assert_same(got, want)


@pytest.mark.parametrize("priority", PRIORITIES)
def test_jp(graph, priority):
    for seed in _seeds(priority):
        got = jones_plassmann_coloring(graph, _executor(), seed=seed, priority=priority)
        want = _reference_jp(graph, _executor(), seed=seed, priority=priority)
        _assert_same(got, want)


def test_untimed_runs_match():
    # without an executor the sweeps are logged but not timed
    g = suite.build("rmat", "tiny")
    for seed in SEEDS:
        _assert_same(maxmin_coloring(g, seed=seed), _reference_maxmin(g, None, seed=seed))
        _assert_same(
            jones_plassmann_coloring(g, seed=seed), _reference_jp(g, None, seed=seed)
        )
