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
    included. Priorities are fixed for the run, so the side each CSR
    entry counts on is fixed too: it is worked out once, as one index
    into ``[higher | lower]`` per entry, and :meth:`retire` only
    gathers and decrements those indices. Each directed edge is touched
    once per run and no row is ever reduced again. The counts stay
    exact on every row, colored rows included.
    """

    __slots__ = ("higher", "lower", "_graph", "_key", "_tie", "_uncolored", "_counts")

    def __init__(self, graph: CSRGraph, priorities: np.ndarray) -> None:
        n = graph.num_vertices
        p = np.asarray(priorities, dtype=np.float64)
        self._graph = graph
        self._uncolored = np.ones(n, dtype=bool)
        # Entry (u, w) counts toward higher[w] when p[u] >= p[w] and
        # toward lower[w] when p[u] <= p[w]: key w, or w + n when
        # p[u] < p[w]. A tie counts on both sides; the tie mask marks
        # the entries that also count at w + n.
        pu = np.repeat(p, graph.degrees)
        pw = np.take(p, graph.indices)
        lt, tie = pu < pw, pu == pw
        del pu, pw  # free the two float gathers before the int64 key exists
        key = graph.indices.astype(np.int64)
        key += n * lt
        self._tie = tie if tie.any() else None
        self._counts = np.bincount(self._with_ties(key, self._tie), minlength=2 * n)
        if 2 * n - 1 <= np.iinfo(np.int32).max:
            # Guarded: every key is below 2n, so int32 holds it.
            key = key.astype(np.int32)  # check: allow(RC008)
        self._key = key
        self.higher = self._counts[:n]
        self.lower = self._counts[n:]

    def _with_ties(self, key: np.ndarray, tie: np.ndarray | None) -> np.ndarray:
        """``key`` plus, for each tied entry, its lower-side key ``key + n``."""
        if tie is None:
            return key
        return np.concatenate((key, key[tie] + self._graph.num_vertices))

    def extrema(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masks over ``ids``: local maxima, and local minima that are not maxima."""
        is_max = self.higher[ids] == 0
        is_min = (self.lower[ids] == 0) & ~is_max
        return is_max, is_min

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
        tie = self._tie[pos] if self._tie is not None else None
        # unbuffered, so repeated keys each count
        np.subtract.at(self._counts, self._with_ties(self._key[pos], tie), 1)


# The full-adjacency reductions and the first-fit kernel, as plain
# functions over the one NumPy implementation.
_NUMPY = NumpyBackend()
neighbor_reduce = _NUMPY.neighbor_reduce
neighbor_max = _NUMPY.neighbor_max
neighbor_min = _NUMPY.neighbor_min
first_fit_colors = _NUMPY.first_fit_colors
