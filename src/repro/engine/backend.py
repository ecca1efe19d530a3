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

__all__ = ["ArrayBackend", "NumpyBackend", "make_backend"]


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
        neighbor entries block nothing. Fully vectorized over all
        requested vertices.
        """
        cols = np.asarray(colors, dtype=np.int64)
        if cols.shape != (graph.num_vertices,):
            raise ValueError("colors must have one entry per vertex")
        verts = np.asarray(vertices, dtype=np.int64).ravel()
        if verts.size == 0:
            return np.empty(0, dtype=np.int64)
        if verts.min() < 0 or verts.max() >= graph.num_vertices:
            raise ValueError("vertex id out of range")

        deg = graph.degrees[verts]
        slots = deg + 1  # candidate colors 0..deg per vertex
        slot_start = np.concatenate([[0], np.cumsum(slots)])
        total = int(slot_start[-1])

        # Gather the adjacency of the requested vertices.
        starts = graph.indptr[verts]
        counts = graph.indptr[verts + 1] - starts
        row_of_entry = np.repeat(np.arange(verts.size), counts)
        # flat positions of each neighbor entry in graph.indices
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

        # mex per segment: smallest unblocked in-segment offset.
        in_seg = np.arange(total, dtype=np.int64) - np.repeat(slot_start[:-1], slots)
        candidate = np.where(blocked, np.iinfo(np.int64).max, in_seg)
        return np.minimum.reduceat(candidate, slot_start[:-1]).astype(np.int64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def make_backend(spec: str | ArrayBackend) -> ArrayBackend:
    """The NumPy backend for ``"numpy"`` (or its alias ``"auto"``).

    An already-constructed backend passes through unchanged.
    """
    if not isinstance(spec, str):
        return spec
    if spec in ("numpy", "auto"):
        return NumpyBackend()
    raise ValueError(f"unknown backend {spec!r}; known: 'numpy', 'auto'")
