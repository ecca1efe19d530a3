"""Vectorized neighborhood primitives shared by the GPU algorithms.

These are the numpy equivalents of the kernels' inner loops — segment
reductions over CSR neighbor lists and the first-fit (mex) kernel.

* :class:`LiveEdges` is what the independent-set sweeps (maxmin,
  edge-centric, jp, and hybrid-switch through maxmin) reduce over: only
  the directed edges whose two endpoints are still uncolored, shrunk
  after every sweep, with max and min fused into one gather. It calls
  NumPy directly, never an array backend.
* The free functions at the bottom are the full-adjacency reductions
  and the first-fit kernel of
  :class:`~repro.engine.backend.NumpyBackend`. The race-scanner replays
  and tests call them; the algorithms call first-fit through
  ``RunContext.backend`` so a counting or timing backend can stand in.
"""

from __future__ import annotations

import numpy as np

from ..engine.backend import NumpyBackend
from ..graphs.csr import CSRGraph

__all__ = [
    "LiveEdges",
    "neighbor_reduce",
    "neighbor_max",
    "neighbor_min",
    "first_fit_colors",
]


class LiveEdges:
    """The directed edges whose two endpoints are both uncolored.

    Held as parallel ``src``/``dst`` int32 arrays in CSR (row-major)
    order, so each row's live edges form one contiguous segment. Starts
    with every edge of ``graph`` (all vertices uncolored); :meth:`retain`
    drops the edges of newly colored vertices after each sweep.

    Reductions return one entry per vertex. Rows with no live edge get
    the identity (−inf for max, +inf for min), so on every uncolored row
    the result equals the full-adjacency reduction of values masked to
    the identity at colored vertices — a colored neighbor only ever
    contributed the identity.
    """

    __slots__ = ("_n", "_src", "_dst", "_starts", "_rows")

    def __init__(self, graph: CSRGraph) -> None:
        self._n = graph.num_vertices
        # Vertex ids fit int32 by the CSR contract (indices is int32).
        self._src = np.repeat(np.arange(self._n, dtype=np.int32), graph.degrees)
        self._dst = graph.indices
        self._segment()

    def _segment(self) -> None:
        """Recompute the start offset and the row id of each live row."""
        src = self._src
        # a segment starts at edge 0 (if any) and wherever the row changes
        self._starts = np.flatnonzero(np.concatenate(([src.size > 0], src[1:] != src[:-1])))
        self._rows = src[self._starts]

    @property
    def num_edges(self) -> int:
        """Number of live directed edges."""
        return int(self._src.size)

    # np.take and np.compress rather than fancy/boolean indexing: with
    # int32 indices they skip the cast to intp and run 2-3x faster.

    def _gather(self, values: np.ndarray) -> np.ndarray:
        return np.take(np.asarray(values, dtype=np.float64), self._dst)

    def _reduce(self, gathered: np.ndarray, op: np.ufunc, fill: float) -> np.ndarray:
        out = np.full(self._n, fill, dtype=np.float64)
        if self._starts.size:
            # every segment is non-empty, so reduceat's empty-row quirk never fires
            out[self._rows] = op.reduceat(gathered, self._starts)
        return out

    def extrema(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex (max, min) of ``values`` over live neighbors, one gather."""
        gathered = self._gather(values)
        return (
            self._reduce(gathered, np.maximum, -np.inf),
            self._reduce(gathered, np.minimum, np.inf),
        )

    def maximum(self, values: np.ndarray) -> np.ndarray:
        """Per-vertex max of ``values`` over live neighbors (−inf if none)."""
        return self._reduce(self._gather(values), np.maximum, -np.inf)

    def retain(self, uncolored: np.ndarray) -> None:
        """Drop every edge with an endpoint outside the ``uncolored`` mask."""
        keep = np.take(uncolored, self._src) & np.take(uncolored, self._dst)
        self._src = np.compress(keep, self._src)
        self._dst = np.compress(keep, self._dst)
        self._segment()


# The full-adjacency reductions and the first-fit kernel, as plain
# functions over the one NumPy implementation.
_NUMPY = NumpyBackend()
neighbor_reduce = _NUMPY.neighbor_reduce
neighbor_max = _NUMPY.neighbor_max
neighbor_min = _NUMPY.neighbor_min
first_fit_colors = _NUMPY.first_fit_colors
