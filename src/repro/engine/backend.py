"""Pluggable array backends for the neighborhood primitives.

The GPU algorithms' inner loops are segment reductions over CSR
neighbor lists and a vectorized first-fit (mex) kernel. Historically
those were hardwired to one NumPy ``ufunc.reduceat`` implementation in
:mod:`repro.coloring._nbr`; this module turns them into a swappable
:class:`ArrayBackend` surface so hot paths can be benchmarked and
re-implemented (chunk-parallel thread pool today; GPU arrays tomorrow)
without touching any algorithm.

Backends are interchangeable by construction: every implementation
computes each vertex's reduction in the same within-row order, so the
results are bit-identical across backends — only the wall-clock cost
differs.

* :class:`NumpyBackend` — the single-pass ``reduceat`` implementation
  (the default; fastest for small and medium graphs).
* :class:`ChunkParallelBackend` — splits the vertex range into
  contiguous chunks and reduces them on a thread pool; wins once the
  adjacency stops fitting in cache.
* :class:`AutoBackend` — per-call delegation: NumPy below a work-size
  threshold, chunk-parallel above it.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:
    from ..graphs.csr import CSRGraph

__all__ = [
    "BACKENDS",
    "ArrayBackend",
    "NumpyBackend",
    "ChunkParallelBackend",
    "AutoBackend",
    "make_backend",
    "get_default_backend",
    "set_default_backend",
]

#: Names accepted by :func:`make_backend` (and the CLI ``--backend`` flag).
BACKENDS = ("auto", "numpy", "chunked")


@runtime_checkable
class ArrayBackend(Protocol):
    """The primitive surface every backend provides.

    ``neighbor_reduce`` is the full-adjacency segment reduction (the
    race-scanner replays use it; the maxmin/edge-centric/jp sweeps reduce
    over :class:`~repro.coloring._nbr.LiveEdges` instead);
    ``first_fit_colors`` is the mex kernel the first-fit algorithms
    share. Implementations must be pure functions
    of their inputs (no hidden state) so results never depend on which
    backend ran them.
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


# ----------------------------------------------------------------------
# range kernels shared by every CPU backend
# ----------------------------------------------------------------------


def _reduce_rows(
    graph: "CSRGraph",
    vals: np.ndarray,
    op: np.ufunc,
    fill: float,
    lo_v: int,
    hi_v: int,
    out: np.ndarray,
) -> None:
    """Reduce rows ``[lo_v, hi_v)`` into ``out`` (same indexing).

    Uses ``op.reduceat`` over the sliced ``indptr`` boundaries, with the
    empty-row quirk of ``reduceat`` handled explicitly: a sentinel copy
    of ``fill`` is appended so every boundary is a valid index, and rows
    with no neighbors are overwritten with ``fill`` afterwards.
    """
    indptr = graph.indptr
    base = int(indptr[lo_v])
    stop = int(indptr[hi_v])
    if stop == base:
        out[lo_v:hi_v] = fill
        return
    gathered = np.concatenate([vals[graph.indices[base:stop]], [fill]])
    starts = indptr[lo_v:hi_v] - base
    seg = op.reduceat(gathered, starts)
    # rows with no neighbors got a bogus single-element "reduction"
    seg[indptr[lo_v:hi_v] == indptr[lo_v + 1 : hi_v + 1]] = fill
    out[lo_v:hi_v] = seg


def _first_fit_rows(
    graph: "CSRGraph", cols: np.ndarray, verts: np.ndarray, lo: int, hi: int, out: np.ndarray
) -> None:
    """First-fit colors for ``verts[lo:hi]``, written to ``out[lo:hi]``.

    Vertex ``v`` of degree ``d`` gets the smallest color in ``[0, d]``
    absent from its neighborhood (pigeonhole guarantees one is free);
    negative (uncolored) neighbor entries block nothing.
    """
    sel = verts[lo:hi]
    deg = graph.degrees[sel]
    slots = deg + 1  # candidate colors 0..deg per vertex
    slot_start = np.concatenate([[0], np.cumsum(slots)])
    total = int(slot_start[-1])

    # Gather the adjacency of the requested vertices.
    starts = graph.indptr[sel]
    ends = graph.indptr[sel + 1]
    counts = ends - starts
    row_of_entry = np.repeat(np.arange(sel.size), counts)
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
    out[lo:hi] = np.minimum.reduceat(candidate, slot_start[:-1]).astype(np.int64)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------


class NumpyBackend:
    """Single-pass ``reduceat`` backend — one vectorized shot per call."""

    name = "numpy"

    # -- partitioning hooks (overridden by the chunk-parallel backend) --

    def _ranges(self, total: int) -> list[tuple[int, int]]:
        return [(0, total)]

    def _run(self, thunks: list[Callable[[], None]]) -> None:
        for thunk in thunks:
            thunk()

    # -- the primitive surface ------------------------------------------

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
        n = graph.num_vertices
        out = np.full(n, fill, dtype=np.float64)
        if n == 0 or graph.indices.size == 0:
            return out
        self._run(
            [
                (lambda a=a, b=b: _reduce_rows(graph, vals, op, fill, a, b, out))
                for a, b in self._ranges(n)
            ]
        )
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
        """Smallest color unused by any neighbor, for each given vertex."""
        cols = np.asarray(colors, dtype=np.int64)
        if cols.shape != (graph.num_vertices,):
            raise ValueError("colors must have one entry per vertex")
        verts = np.asarray(vertices, dtype=np.int64).ravel()
        if verts.size == 0:
            return np.empty(0, dtype=np.int64)
        if verts.min() < 0 or verts.max() >= graph.num_vertices:
            raise ValueError("vertex id out of range")
        out = np.empty(verts.size, dtype=np.int64)
        self._run(
            [
                (lambda a=a, b=b: _first_fit_rows(graph, cols, verts, a, b, out))
                for a, b in self._ranges(verts.size)
            ]
        )
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ChunkParallelBackend(NumpyBackend):
    """Chunked thread-pool backend for large graphs.

    The vertex range is split into contiguous chunks (one ``reduceat``
    per chunk, each over a slice of the adjacency) that run on a shared
    :class:`~concurrent.futures.ThreadPoolExecutor`. NumPy releases the
    GIL inside the gather/reduce kernels, so chunks genuinely overlap.
    Results are bit-identical to :class:`NumpyBackend` — within-row
    reduction order is unchanged, only rows are grouped differently.
    """

    name = "chunked"

    def __init__(self, num_threads: int | None = None, min_chunk: int = 16_384) -> None:
        if num_threads is not None and num_threads <= 0:
            raise ValueError("num_threads must be positive")
        if min_chunk <= 0:
            raise ValueError("min_chunk must be positive")
        self.num_threads = num_threads or min(8, os.cpu_count() or 1)
        self.min_chunk = min_chunk
        self._pool: ThreadPoolExecutor | None = None

    def _ranges(self, total: int) -> list[tuple[int, int]]:
        per = max(self.min_chunk, -(-total // self.num_threads))
        starts = range(0, total, per)
        return [(a, min(a + per, total)) for a in starts]

    def _run(self, thunks: list[Callable[[], None]]) -> None:
        if len(thunks) <= 1:
            for thunk in thunks:
                thunk()
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="repro-backend"
            )
        # list() propagates the first worker exception, if any
        list(self._pool.map(lambda thunk: thunk(), thunks))

    def __repr__(self) -> str:
        return f"ChunkParallelBackend(num_threads={self.num_threads}, min_chunk={self.min_chunk})"


class AutoBackend:
    """Per-call selection: NumPy when small, chunk-parallel when large.

    ``threshold`` is the adjacency size (directed edge count) above
    which a call is routed to the chunk-parallel backend; below it the
    thread-pool overhead exceeds the win and plain NumPy runs.
    """

    name = "auto"

    def __init__(self, threshold: int = 200_000, **chunked_kwargs) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self._small = NumpyBackend()
        self._large = ChunkParallelBackend(**chunked_kwargs)

    def _pick(self, work: int) -> NumpyBackend:
        return self._large if work >= self.threshold else self._small

    def neighbor_reduce(self, graph, values, op, fill):
        return self._pick(graph.indices.size).neighbor_reduce(graph, values, op, fill)

    def neighbor_max(self, graph, values):
        return self._pick(graph.indices.size).neighbor_max(graph, values)

    def neighbor_min(self, graph, values):
        return self._pick(graph.indices.size).neighbor_min(graph, values)

    def first_fit_colors(self, graph, colors, vertices):
        verts = np.asarray(vertices)
        return self._pick(verts.size).first_fit_colors(graph, colors, vertices)

    def __repr__(self) -> str:
        return f"AutoBackend(threshold={self.threshold})"


# ----------------------------------------------------------------------
# construction and the process-wide default
# ----------------------------------------------------------------------


def make_backend(spec: str | ArrayBackend, **kwargs) -> ArrayBackend:
    """Build a backend from a name (``auto``/``numpy``/``chunked``).

    An already-constructed backend passes through unchanged (``kwargs``
    must then be empty).
    """
    if not isinstance(spec, str):
        if kwargs:
            raise ValueError("kwargs only apply when constructing by name")
        return spec
    if spec == "numpy":
        if kwargs:
            raise ValueError("NumpyBackend takes no options")
        return NumpyBackend()
    if spec == "chunked":
        return ChunkParallelBackend(**kwargs)
    if spec == "auto":
        return AutoBackend(**kwargs)
    raise ValueError(f"unknown backend {spec!r}; known: {BACKENDS}")


_default_backend: ArrayBackend | None = None


def get_default_backend() -> ArrayBackend:
    """The process-wide backend used when no RunContext is in play."""
    global _default_backend
    if _default_backend is None:
        _default_backend = AutoBackend()
    return _default_backend


def set_default_backend(backend: str | ArrayBackend) -> ArrayBackend:
    """Replace the process-wide default; returns the previous one."""
    global _default_backend
    previous = get_default_backend()
    _default_backend = make_backend(backend)
    return previous
