"""Backend-surface tests: edge cases and construction.

The ``reduceat`` quirks (empty graphs, isolated vertices, single-vertex
graphs) are exercised here *through* the ``ArrayBackend`` interface of
the NumPy implementation. Brute-force checks of the reductions and
first-fit live in ``tests/coloring/test_nbr.py``.
"""

import numpy as np
import pytest

from repro.coloring.base import UNCOLORED
from repro.coloring import _nbr
from repro.engine import context as context_mod
from repro.engine.backend import ArrayBackend, NumpyBackend, make_backend
from repro.engine.context import RunContext
from repro.graphs.csr import CSRGraph
from repro.harness import suite
from repro.harness.runner import run_gpu_coloring


def _graph_from_edges(n, edges):
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    return CSRGraph.from_edges(u, v, num_vertices=n)


BACKEND_OBJECTS = [NumpyBackend()]


@pytest.fixture(params=BACKEND_OBJECTS, ids=lambda b: repr(b))
def backend(request):
    return request.param


class TestEmptyGraph:
    def test_neighbor_reduce_zero_vertices(self, backend):
        g = _graph_from_edges(0, [])
        out = backend.neighbor_max(g, np.empty(0))
        assert out.shape == (0,)

    def test_first_fit_zero_vertices_requested(self, backend):
        g = _graph_from_edges(3, [(0, 1)])
        out = backend.first_fit_colors(
            g, np.full(3, UNCOLORED, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert out.shape == (0,)
        assert out.dtype == np.int64

    def test_edgeless_graph_gets_fill(self, backend):
        g = _graph_from_edges(4, [])
        out = backend.neighbor_max(g, np.arange(4, dtype=np.float64))
        assert np.all(np.isneginf(out))


class TestIsolatedVertices:
    """The ``reduceat`` empty-row quirk: isolated rows must get the fill."""

    def test_isolated_rows_get_identity(self, backend):
        # vertices 0-1 connected, 2 isolated, 3-4 connected, 5 isolated
        g = _graph_from_edges(6, [(0, 1), (3, 4)])
        vals = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        hi = backend.neighbor_max(g, vals)
        lo = backend.neighbor_min(g, vals)
        assert hi[0] == 20.0 and hi[1] == 10.0
        assert np.isneginf(hi[2]) and np.isneginf(hi[5])
        assert np.isposinf(lo[2]) and np.isposinf(lo[5])

    def test_trailing_isolated_row(self, backend):
        # the last row being empty exercises the sentinel append
        g = _graph_from_edges(3, [(0, 1)])
        out = backend.neighbor_max(g, np.array([1.0, 2.0, 3.0]))
        assert out[0] == 2.0 and out[1] == 1.0
        assert np.isneginf(out[2])

    def test_first_fit_isolated_vertex(self, backend):
        g = _graph_from_edges(3, [(0, 1)])
        colors = np.full(3, UNCOLORED, dtype=np.int64)
        got = backend.first_fit_colors(g, colors, np.array([2]))
        assert got.tolist() == [0]


class TestSingleVertex:
    def test_single_vertex_no_edges(self, backend):
        g = _graph_from_edges(1, [])
        assert np.isneginf(backend.neighbor_max(g, np.array([7.0])))[0]
        colors = np.full(1, UNCOLORED, dtype=np.int64)
        assert backend.first_fit_colors(g, colors, np.array([0])).tolist() == [0]


class TestValidation:
    def test_values_shape_checked(self, backend):
        g = _graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="one entry per vertex"):
            backend.neighbor_max(g, np.zeros(2))

    def test_colors_shape_checked(self, backend):
        g = _graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="one entry per vertex"):
            backend.first_fit_colors(g, np.zeros(5, dtype=np.int64), np.array([0]))

    def test_vertex_range_checked(self, backend):
        g = _graph_from_edges(3, [(0, 1)])
        colors = np.full(3, UNCOLORED, dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            backend.first_fit_colors(g, colors, np.array([3]))
        with pytest.raises(ValueError, match="out of range"):
            backend.first_fit_colors(g, colors, np.array([-1]))


class TestConstruction:
    def test_make_backend_names(self):
        assert isinstance(make_backend("numpy"), NumpyBackend)
        assert isinstance(make_backend("auto"), NumpyBackend)

    def test_make_backend_passthrough(self):
        be = NumpyBackend()
        assert make_backend(be) is be

    def test_make_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("cuda")
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("chunked")

    def test_backends_satisfy_protocol(self):
        for be in BACKEND_OBJECTS:
            assert isinstance(be, ArrayBackend)


#: the real kernel, captured before any test patches the class
_first_fit = NumpyBackend.first_fit_colors


class CountingBackend:
    """A substitute backend: counts first-fit calls, delegates the answer."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    def first_fit_colors(self, graph, colors, vertices):
        self.calls += 1
        return _first_fit(NumpyBackend(), graph, colors, vertices)


class TestContextSeam:
    """A fake returned by ``context.make_backend`` serves every first-fit."""

    @pytest.mark.parametrize("algorithm", ["jp", "speculative", "partitioned", "hybrid-switch"])
    def test_first_fit_routes_through_substitute(self, algorithm, monkeypatch):
        g = suite.build("rmat", "tiny")
        ctx = RunContext()
        plain = run_gpu_coloring(g, algorithm, ctx.executor(), seed=3, context=ctx)

        def bypass(*args, **kwargs):
            raise AssertionError("first-fit bypassed RunContext.backend")

        monkeypatch.setattr(context_mod, "make_backend", lambda spec: CountingBackend())
        monkeypatch.setattr(NumpyBackend, "first_fit_colors", bypass)
        monkeypatch.setattr(_nbr, "first_fit_colors", bypass)
        ctx = RunContext()
        routed = run_gpu_coloring(g, algorithm, ctx.executor(), seed=3, context=ctx)

        assert isinstance(ctx.backend, CountingBackend)
        assert ctx.backend.calls > 0
        np.testing.assert_array_equal(routed.colors, plain.colors)
        assert routed.total_cycles == plain.total_cycles
