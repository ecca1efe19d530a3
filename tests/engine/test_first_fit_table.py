"""The forbidden-color table first-fit against the slot layout it replaced.

``NumpyBackend.first_fit_colors`` scatters the neighbor colors of the
requested rows into one ``(rows, slots + 1)`` bool table (in blocks of
at most ``TABLE_BUDGET`` entries) and takes each row's first unset
column. ``_reference_first_fit`` below is the previous form: a segmented
slot array of ``deg + 1`` candidates per row reduced with
``minimum.reduceat``. Values and dtype must match exactly, for any block
budget.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.base import UNCOLORED
from repro.engine import backend
from repro.engine.backend import NumpyBackend
from repro.graphs.csr import CSRGraph


def _reference_first_fit(graph, colors, vertices):
    cols = np.asarray(colors, dtype=np.int64)
    verts = np.asarray(vertices, dtype=np.int64).ravel()
    if verts.size == 0:
        return np.empty(0, dtype=np.int64)

    deg = graph.degrees[verts]
    slots = deg + 1  # candidate colors 0..deg per vertex
    slot_start = np.concatenate([[0], np.cumsum(slots)])
    total = int(slot_start[-1])

    starts = graph.indptr[verts]
    counts = graph.indptr[verts + 1] - starts
    row_of_entry = np.repeat(np.arange(verts.size), counts)
    if counts.sum():
        offsets = np.repeat(starts - np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        entry_pos = np.arange(int(counts.sum()), dtype=np.int64) + offsets
        nbr_color = cols[graph.indices[entry_pos]]
    else:
        nbr_color = np.empty(0, dtype=np.int64)

    blocked = np.zeros(total, dtype=bool)
    if nbr_color.size:
        valid = (nbr_color >= 0) & (nbr_color <= deg[row_of_entry])
        blocked[slot_start[row_of_entry[valid]] + nbr_color[valid]] = True

    in_seg = np.arange(total, dtype=np.int64) - np.repeat(slot_start[:-1], slots)
    candidate = np.where(blocked, np.iinfo(np.int64).max, in_seg)
    return np.minimum.reduceat(candidate, slot_start[:-1]).astype(np.int64)


def _star(leaves, extra=0):
    """Hub 0 joined to ``leaves`` leaves, plus ``extra`` isolated vertices."""
    hub = np.zeros(leaves, dtype=np.int64)
    return CSRGraph.from_edges(hub, np.arange(1, leaves + 1), num_vertices=leaves + 1 + extra)


@st.composite
def cases(draw):
    """A graph, a color per vertex, the requested rows and a block budget.

    Half the graphs are one hub among many leaves (with random extra
    edges); colors mix uncolored entries, colors above a row's degree
    (up to 3n) and colors at and past 2**31.
    """
    if draw(st.booleans()):
        leaves = draw(st.integers(1, 60))
        n = leaves + 1 + draw(st.integers(0, 5))
        u = [0] * leaves
        v = list(range(1, leaves + 1))
    else:
        n = draw(st.integers(1, 30))
        u, v = [], []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80))
    for a, b in pairs:
        if a != b:
            u.append(a)
            v.append(b)
    graph = CSRGraph.from_edges(
        np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), num_vertices=n
    )
    color = st.one_of(
        st.just(UNCOLORED),
        st.integers(0, 4),
        st.integers(0, 3 * n),
        st.integers(2**31 - 2, 2**31 + 8),
    )
    colors = np.array(draw(st.lists(color, min_size=n, max_size=n)), dtype=np.int64)
    vertices = np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
    budget = draw(st.sampled_from([1, 2, 3, 7, 64, backend.TABLE_BUDGET]))
    return graph, colors, vertices, budget


class TestFirstFitTable:
    @given(cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        graph, colors, vertices, budget = case
        with mock.patch.object(backend, "TABLE_BUDGET", budget):
            got = NumpyBackend().first_fit_colors(graph, colors, vertices)
        want = _reference_first_fit(graph, colors, vertices)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_edgeless_rows_and_no_colored_neighbor(self):
        g = _star(3, extra=2)
        ff = NumpyBackend().first_fit_colors
        uncolored = np.full(g.num_vertices, UNCOLORED, dtype=np.int64)
        assert ff(g, uncolored, np.arange(g.num_vertices)).tolist() == [0] * 6
        colors = np.array([UNCOLORED, 0, 1, 2, 7, 7], dtype=np.int64)
        assert ff(g, colors, np.array([4, 5, 0, 1])).tolist() == [0, 0, 3, 0]

    def test_hub_among_leaves_is_blocked(self):
        # 20,001 rows x 20,001 columns would be a ~400 MB table unblocked
        leaves = 20_000
        g = _star(leaves)
        colors = np.concatenate([[UNCOLORED], np.arange(leaves)]).astype(np.int64)
        vertices = np.arange(leaves + 1, dtype=np.int64)
        tracemalloc.start()
        try:
            got = NumpyBackend().first_fit_colors(g, colors, vertices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert got[0] == leaves and not got[1:].any()
        np.testing.assert_array_equal(got, _reference_first_fit(g, colors, vertices))
