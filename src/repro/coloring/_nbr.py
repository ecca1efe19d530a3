"""Vectorized neighborhood primitives shared by the GPU algorithms.

These are the numpy equivalents of the kernels' inner loops — segment
reductions over CSR neighbor lists and the first-fit (mex) kernel.

* :class:`PriorityCounts` is what the independent-set sweeps (maxmin,
  edge-centric, jp, and hybrid-switch through maxmin) decide local
  extrema from: per vertex, how many uncolored neighbors sit on each
  side of its priority, decremented as vertices are colored. It calls
  NumPy directly, never an array backend.
* The free functions at the bottom are the full-adjacency reductions
  and the first-fit kernel of
  :class:`~repro.engine.backend.NumpyBackend`. Tests use them as
  references; the algorithms call first-fit through
  ``RunContext.backend`` so a counting or timing backend can stand in.
"""

from __future__ import annotations

import numpy as np

from ..engine.backend import NumpyBackend
from ..graphs.csr import CSRGraph

__all__ = [
    "PriorityCounts",
    "neighbor_reduce",
    "neighbor_max",
    "neighbor_min",
    "first_fit_colors",
]


class PriorityCounts:
    """Per-vertex counts of uncolored neighbors above and below its priority.

    ``higher[v]`` counts the uncolored neighbors ``w`` with
    ``p[w] >= p[v]``, ``lower[v]`` those with ``p[w] <= p[v]``. So
    ``higher[v] == 0`` is exactly ``p[v] > max`` and ``lower[v] == 0``
    exactly ``p[v] < min`` of the uncolored neighbors' priorities, ties
    included. Priorities are fixed for the run: the counts are built
    once, and :meth:`retire` only decrements, so each directed edge is
    touched once per run and no row is ever reduced again. The counts
    stay exact on every row, colored rows included.
    """

    __slots__ = ("higher", "lower", "_graph", "_p", "_uncolored", "_counts")

    def __init__(self, graph: CSRGraph, priorities: np.ndarray) -> None:
        n = graph.num_vertices
        self._graph = graph
        self._p = np.asarray(priorities, dtype=np.float64)
        self._uncolored = np.ones(n, dtype=bool)
        keys = self._keys(np.arange(n), graph.degrees, graph.indices)
        self._counts = np.bincount(keys, minlength=2 * n)
        self.higher = self._counts[:n]
        self.lower = self._counts[n:]

    def _keys(self, rows: np.ndarray, deg: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
        """Indices into ``[higher | lower]`` of the edges of ``rows``.

        ``deg`` holds the rows' degrees and ``nbrs`` their concatenated
        neighbor lists. Edge ``(u, w)`` counts toward ``higher[w]`` when
        ``p[u] >= p[w]`` and toward ``lower[w]`` when ``p[u] <= p[w]``
        (both on a tie).
        """
        n = self._graph.num_vertices
        pu = np.repeat(self._p[rows], deg)
        pw = np.take(self._p, nbrs)
        return np.concatenate((nbrs + n * (pu < pw), nbrs[pu == pw] + n))

    def retire(self, ids: np.ndarray) -> None:
        """Mark ``ids`` colored and drop them from their neighbors' counts.

        ``ids`` must be distinct; ids already retired are ignored.
        """
        ids = np.asarray(ids, dtype=np.int64)
        ids = ids[self._uncolored[ids]]
        self._uncolored[ids] = False
        starts = self._graph.indptr[ids]
        deg = self._graph.indptr[ids + 1] - starts
        # flat positions of the rows' entries in graph.indices
        offsets = np.repeat(starts - (np.cumsum(deg) - deg), deg)
        pos = np.arange(int(deg.sum()), dtype=np.int64) + offsets
        keys = self._keys(ids, deg, np.take(self._graph.indices, pos))
        # unbuffered, so repeated keys each count
        np.subtract.at(self._counts, keys, 1)


# The full-adjacency reductions and the first-fit kernel, as plain
# functions over the one NumPy implementation.
_NUMPY = NumpyBackend()
neighbor_reduce = _NUMPY.neighbor_reduce
neighbor_max = _NUMPY.neighbor_max
neighbor_min = _NUMPY.neighbor_min
first_fit_colors = _NUMPY.first_fit_colors
