"""The array-backend seam for the neighborhood primitives.

The first-fit algorithms (jp, speculative and the algorithms built on
them) call the mex kernel through ``RunContext.backend``, an
:class:`ArrayBackend`. There is one implementation, :class:`NumpyBackend`;
the protocol exists so a test or a profiler can substitute a counting
or timing backend without touching any algorithm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:
    from ..graphs.csr import CSRGraph

__all__ = ["ArrayBackend", "NumpyBackend", "TABLE_BUDGET", "first_free_offsets", "make_backend"]


@runtime_checkable
class ArrayBackend(Protocol):
    """The primitive surface every backend provides.

    ``neighbor_reduce`` is the full-adjacency segment reduction (tests
    use it as a reference; the maxmin/edge-centric/jp sweeps decide
    local extrema from :class:`~repro.coloring._nbr.PriorityCounts`
    instead);
    ``first_fit_colors`` is the mex kernel the first-fit algorithms
    share. Implementations must be pure functions of their inputs (no
    hidden state) so results never depend on which backend ran them.
    """

    name: str

    def neighbor_reduce(
        self, graph: "CSRGraph", values: np.ndarray, op: np.ufunc, fill: float
    ) -> np.ndarray: ...

    def neighbor_max(self, graph: "CSRGraph", values: np.ndarray) -> np.ndarray: ...

    def neighbor_min(self, graph: "CSRGraph", values: np.ndarray) -> np.ndarray: ...

    def first_fit_colors(
        self, graph: "CSRGraph", colors: np.ndarray, vertices: np.ndarray
    ) -> np.ndarray: ...


class NumpyBackend:
    """Single-pass ``reduceat`` backend — one vectorized shot per call."""

    name = "numpy"

    def neighbor_reduce(
        self, graph: "CSRGraph", values: np.ndarray, op: np.ufunc, fill: float
    ) -> np.ndarray:
        """Per-vertex ``op``-reduction of ``values`` over neighbor lists.

        ``values`` is indexed by vertex id; rows with no neighbors get
        ``fill``, which must be ``op``'s identity (−inf for max, +inf
        for min, 0 for add).
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (graph.num_vertices,):
            raise ValueError("values must have one entry per vertex")
        if graph.indices.size == 0:
            return np.full(graph.num_vertices, fill, dtype=np.float64)
        # A sentinel copy of ``fill`` makes every row start a valid
        # ``reduceat`` index; rows with no neighbors got a bogus
        # single-element "reduction" and are overwritten with ``fill``.
        gathered = np.concatenate([vals[graph.indices], [fill]])
        out = op.reduceat(gathered, graph.indptr[:-1])
        out[graph.degrees == 0] = fill
        return out

    def neighbor_max(self, graph: "CSRGraph", values: np.ndarray) -> np.ndarray:
        """Per-vertex max of neighbor ``values`` (−inf for isolated rows)."""
        return self.neighbor_reduce(graph, values, np.maximum, -np.inf)

    def neighbor_min(self, graph: "CSRGraph", values: np.ndarray) -> np.ndarray:
        """Per-vertex min of neighbor ``values`` (+inf for isolated rows)."""
        return self.neighbor_reduce(graph, values, np.minimum, np.inf)

    def first_fit_colors(
        self, graph: "CSRGraph", colors: np.ndarray, vertices: np.ndarray
    ) -> np.ndarray:
        """Smallest color not used by any neighbor, for each given vertex.

        Vertex ``v`` of degree ``d`` gets a color in ``[0, d]``
        (pigeonhole guarantees one is free). Negative (uncolored)
        neighbor entries block nothing. One forbidden-color table per
        call, see :func:`first_free_offsets`.
        """
        cols = np.asarray(colors, dtype=np.int64)
        if cols.shape != (graph.num_vertices,):
            raise ValueError("colors must have one entry per vertex")
        verts = np.asarray(vertices, dtype=np.int64).ravel()
        if verts.size and (verts.min() < 0 or verts.max() >= graph.num_vertices):
            raise ValueError("vertex id out of range")
        return first_free_offsets(graph, cols, verts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: Entries of one block of the forbidden-color table; bounds a call's
#: table memory (4 MiB of bools) whatever its rows and colors.
TABLE_BUDGET = 1 << 22


def first_free_offsets(
    graph: "CSRGraph", colors: np.ndarray, vertices: np.ndarray, base: int = 0
) -> np.ndarray:
    """Per vertex, ``c - base`` for the smallest ``c >= base`` no neighbor holds.

    The rows' neighbor colors are gathered once and scattered into a
    ``(rows, slots + 1)`` bool table; a row's answer is its first unset
    column. ``slots = min(top + 1, max row degree)`` for ``top`` the
    largest gathered offset, so the width never grows with the color
    values, and rows run in blocks of at most :data:`TABLE_BUDGET` entries.
    """
    out = np.zeros(vertices.size, dtype=np.int64)
    starts = graph.indptr[vertices]
    counts = graph.indptr[vertices + 1] - starts
    ends = np.cumsum(counts)
    if ends.size == 0 or ends[-1] == 0:
        return out
    # flat positions of the rows' entries in graph.indices
    entry = np.arange(ends[-1], dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
    nbr = colors[graph.indices[entry]] - base
    # column ``slots`` is free in any row whose earlier columns are all set:
    # no neighbor holds top + 1, and d neighbors leave one of d + 1 free
    slots = min(int(nbr.max()) + 1, int(counts.max()))
    if slots <= 0:
        return out  # no neighbor holds a color at or above base
    width = slots + 1
    step = max(1, TABLE_BUDGET // width)
    for lo in range(0, vertices.size, step):
        hi = min(lo + step, vertices.size)
        block = nbr[ends[lo] - counts[lo] : ends[hi - 1]]
        flat = np.repeat(np.arange(hi - lo, dtype=np.int64) * width, counts[lo:hi]) + block
        table = np.zeros((hi - lo) * width, dtype=bool)
        table[flat[(block >= 0) & (block < slots)]] = True
        out[lo:hi] = table.reshape(hi - lo, width).argmin(axis=1)
    return out


def make_backend(spec: str | ArrayBackend) -> ArrayBackend:
    """The NumPy backend for ``"numpy"`` (or its alias ``"auto"``).

    An already-constructed backend passes through unchanged.
    """
    if not isinstance(spec, str):
        return spec
    if spec in ("numpy", "auto"):
        return NumpyBackend()
    raise ValueError(f"unknown backend {spec!r}; known: 'numpy', 'auto'")
