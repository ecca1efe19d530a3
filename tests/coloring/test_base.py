"""Unit tests for coloring results and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.coloring.base import (
    UNCOLORED,
    ColoringResult,
    InvalidColoringError,
    conflicting_edges,
    count_conflicts,
    is_valid_coloring,
    num_colors_used,
    validate_coloring,
)
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.gpusim.device import RADEON_HD_7950


class TestValidation:
    def test_valid_triangle_coloring(self, triangle):
        validate_coloring(triangle, np.array([0, 1, 2]))  # must not raise
        assert is_valid_coloring(triangle, np.array([0, 1, 2]))

    def test_conflict_detected(self, triangle):
        with pytest.raises(InvalidColoringError, match="conflicting"):
            validate_coloring(triangle, np.array([0, 0, 1]))
        assert not is_valid_coloring(triangle, np.array([0, 0, 1]))

    def test_uncolored_rejected_by_default(self, path5):
        colors = np.array([0, 1, UNCOLORED, 1, 0])
        with pytest.raises(InvalidColoringError, match="uncolored"):
            validate_coloring(path5, colors)
        validate_coloring(path5, colors, allow_uncolored=True)

    def test_uncolored_pair_is_not_conflict(self, path5):
        colors = np.full(5, UNCOLORED)
        assert count_conflicts(path5, colors) == 0

    def test_below_sentinel_rejected(self, triangle):
        with pytest.raises(InvalidColoringError, match="sentinel"):
            validate_coloring(triangle, np.array([0, 1, -5]))

    def test_wrong_shape_rejected(self, triangle):
        with pytest.raises(ValueError, match="shape"):
            validate_coloring(triangle, np.array([0, 1]))

    def test_conflicting_edges_endpoints(self):
        g = gen.path(3)
        u, v = conflicting_edges(g, np.array([0, 0, 0]))
        assert set(zip(u.tolist(), v.tolist())) == {(0, 1), (1, 2)}

    def test_count_conflicts(self):
        g = gen.clique(3)
        assert count_conflicts(g, np.array([0, 0, 0])) == 3
        assert count_conflicts(g, np.array([0, 0, 1])) == 1
        assert count_conflicts(g, np.array([0, 1, 2])) == 0


def _reference_conflicts(graph, colors):
    """Conflicting edges from the undirected edge list, ``u < v``."""
    u, v = graph.edge_array()
    bad = (colors[u] == colors[v]) & (colors[u] != UNCOLORED)
    return u[bad], v[bad]


def _reference_message(graph, colors, allow_uncolored):
    """What the edge-list validator raised, or None for a proper coloring."""
    if np.any(colors < UNCOLORED):
        return "negative color below the UNCOLORED sentinel"
    if not allow_uncolored and np.any(colors == UNCOLORED):
        return f"{int((colors == UNCOLORED).sum())} vertices left uncolored"
    u, v = _reference_conflicts(graph, colors)
    if u.size:
        return (
            f"{u.size} conflicting edges, e.g. ({int(u[0])}, {int(v[0])}) "
            f"both color {int(colors[u[0]])}"
        )
    return None


#: small colors, the sentinel, one color below it, and colors >= 2**31
#: whose int32 images collide with each other, with small colors and
#: with the sentinel (2**32 - 1 wraps to -1)
_PALETTE = [-2, UNCOLORED, 0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**33 + 2]


@st.composite
def graphs_and_colorings(draw, max_vertices=24, max_edges=70):
    """A random graph (empty and edgeless ones included) and colors for it."""
    n = draw(st.integers(0, max_vertices))
    m = draw(st.integers(0, max_edges)) if n else 0
    u = draw(arrays(np.int64, m, elements=st.integers(0, max(n - 1, 0))))
    v = draw(arrays(np.int64, m, elements=st.integers(0, max(n - 1, 0))))
    palette = draw(st.lists(st.sampled_from(_PALETTE), min_size=1, max_size=4))
    colors = draw(arrays(np.int64, n, elements=st.sampled_from(palette)))
    return CSRGraph.from_edges(u, v, num_vertices=n), colors


class TestOnePassValidators:
    """The one-pass validators agree with the edge-list reference."""

    @given(graphs_and_colorings(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_agree_with_edge_list(self, data, allow_uncolored):
        g, colors = data
        want = _reference_message(g, colors, allow_uncolored)
        if want is None:
            validate_coloring(g, colors, allow_uncolored=allow_uncolored)
        else:
            with pytest.raises(InvalidColoringError) as exc:
                validate_coloring(g, colors, allow_uncolored=allow_uncolored)
            assert str(exc.value) == want
        assert is_valid_coloring(g, colors, allow_uncolored=allow_uncolored) == (
            want is None
        )
        u, _ = _reference_conflicts(g, colors)
        assert count_conflicts(g, colors) == u.size

    def test_adjacent_uncolored_vertices(self, path5):
        colors = np.array([UNCOLORED, UNCOLORED, 0, UNCOLORED, UNCOLORED])
        validate_coloring(path5, colors, allow_uncolored=True)
        assert is_valid_coloring(path5, colors, allow_uncolored=True)
        assert not is_valid_coloring(path5, colors)
        with pytest.raises(InvalidColoringError, match="4 vertices left uncolored"):
            validate_coloring(path5, colors)

    def test_int32_images_do_not_collide(self, path5):
        # 2**32 + c wraps to c in int32; 2**32 - 1 wraps to the sentinel
        colors = np.array([0, 2**32, 1, 2**32 + 1, 2**32 - 1])
        validate_coloring(path5, colors)
        assert count_conflicts(path5, colors) == 0
        with pytest.raises(InvalidColoringError) as exc:
            validate_coloring(path5, np.array([0, 2**32, 2**32, 1, 2**32 - 1]))
        assert str(exc.value) == "1 conflicting edges, e.g. (1, 2) both color 4294967296"

    def test_empty_and_edgeless_graphs(self):
        empty = CSRGraph.empty(0)
        validate_coloring(empty, np.array([], dtype=np.int64))
        assert count_conflicts(empty, np.array([], dtype=np.int64)) == 0
        edgeless = CSRGraph.empty(3)
        assert is_valid_coloring(edgeless, np.zeros(3, dtype=np.int64))
        assert count_conflicts(edgeless, np.zeros(3, dtype=np.int64)) == 0


class TestNumColors:
    def test_counts_distinct(self):
        assert num_colors_used(np.array([0, 2, 2, 5])) == 3

    def test_ignores_sentinel(self):
        assert num_colors_used(np.array([UNCOLORED, 1, UNCOLORED])) == 1

    def test_empty(self):
        assert num_colors_used(np.array([], dtype=int)) == 0


class TestColoringResult:
    def test_properties(self, triangle):
        r = ColoringResult(
            algorithm="x",
            colors=np.array([0, 1, 2]),
            total_cycles=925_000.0,
            device=RADEON_HD_7950,
        )
        assert r.num_colors == 3
        assert r.time_ms == pytest.approx(1.0)  # 925k cycles at 925 MHz
        assert r.validate(triangle) is r

    def test_cpu_result_has_zero_time(self):
        r = ColoringResult(algorithm="cpu", colors=np.array([0]))
        assert r.time_ms == 0.0

    def test_validate_raises_on_bad(self, triangle):
        r = ColoringResult(algorithm="x", colors=np.array([0, 0, 1]))
        with pytest.raises(InvalidColoringError):
            r.validate(triangle)

    def test_as_row(self):
        r = ColoringResult(algorithm="algo", colors=np.array([0, 1]))
        row = r.as_row()
        assert row["algorithm"] == "algo"
        assert row["colors"] == 2
