"""Compressed-sparse-row graph — the device-side data structure.

Every GPU kernel in the paper reads the graph as two flat arrays
(``row_offsets`` / ``column_indices`` in OpenCL terms). :class:`CSRGraph`
is exactly that representation, immutable once built, with numpy arrays
that the simulated kernels index vectorized.

Graphs are **undirected simple graphs**: the adjacency is stored
symmetrically (each undirected edge appears in both endpoint's neighbor
list), self-loops are rejected, and duplicate edges are merged at build
time. Neighbor lists are sorted ascending, which mirrors what a real
implementation gets from a sorted-CSR sparse matrix and makes membership
tests ``O(log d)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

import numpy as np

__all__ = ["CSRGraph"]

_INT32_MAX = int(np.iinfo(np.int32).max)


class CSRGraph:
    """An immutable undirected simple graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; neighbor list of vertex ``v``
        is ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int32`` array of length ``2 * num_edges`` holding the
        concatenated, ascending-sorted neighbor lists.
    validate:
        When true (default), check structural invariants (monotone
        ``indptr``, in-range sorted unique neighbors, symmetry, no
        self-loops). Disable only for trusted inputs on hot paths.
    """

    __slots__ = ("_indptr", "_indices", "_n")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        if indptr.ndim != 1 or indptr.size == 0:
            raise ValueError("indptr must be a 1-D array of length n + 1")
        if indices.ndim != 1:
            raise ValueError("indices must be a 1-D array")
        self._indptr = indptr
        self._indices = indices
        self._n = int(indptr.size - 1)
        if validate:
            self._check_invariants()
        # Freeze the buffers: kernels take views, never copies.
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_edges(
        sources: Sequence[int] | np.ndarray,
        targets: Sequence[int] | np.ndarray,
        num_vertices: int | None = None,
    ) -> "CSRGraph":
        """Build from parallel edge-endpoint arrays.

        Edges are treated as undirected; duplicates (in either
        orientation) are merged and self-loops dropped. ``num_vertices``
        defaults to ``max(endpoint) + 1`` (0 for an empty edge list) and
        is range-checked before anything of size ``n`` is allocated.

        Each edge is packed into one ``int64`` key. The canonical keys
        ``min * n + max`` are sorted and the first of each run kept; the
        survivors plus their reversed keys ``max * n + min`` are sorted
        once more, which is row-major CSR order, so ``divmod`` by ``n``
        gives rows and neighbors and ``indptr`` sums the row counts.
        """
        u = np.asarray(sources, dtype=np.int64).ravel()
        v = np.asarray(targets, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError("sources and targets must have the same length")
        if u.size and (u.min() < 0 or v.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        if num_vertices is None:
            n = int(max(u.max(initial=-1), v.max(initial=-1)) + 1)
        else:
            n = int(num_vertices)
        if not 0 <= n <= _INT32_MAX:
            raise ValueError(f"num_vertices={n} is outside [0, {_INT32_MAX}] (int32 ids)")
        if num_vertices is not None and u.size and max(u.max(), v.max()) >= n:
            raise ValueError("edge endpoint exceeds num_vertices")

        keep = u != v  # drop self-loops
        u, v = u[keep], v[keep]
        key = np.minimum(u, v) * n + np.maximum(u, v)
        key.sort()
        # first key of each run; NumPy 2's hash-based np.unique is far slower here
        key = key[np.diff(key, prepend=-1) != 0]
        lo, hi = np.divmod(key, n)
        key = np.concatenate([key, hi * n + lo])
        key.sort()
        src, dst = np.divmod(key, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        # Guarded above: every id is < n <= int32 max.
        return CSRGraph(indptr, dst.astype(np.int32), validate=False)  # check: allow(RC008)

    @staticmethod
    def from_scipy(matrix) -> "CSRGraph":
        """Build from any scipy sparse matrix (pattern only).

        The matrix is symmetrized (``A | A.T``) and its diagonal dropped,
        so rectangular inputs are rejected.
        """
        import scipy.sparse as sp

        mat = sp.csr_matrix(matrix)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("adjacency matrix must be square")
        coo = mat.tocoo()
        return CSRGraph.from_edges(coo.row, coo.col, num_vertices=mat.shape[0])

    @staticmethod
    def from_adjacency(neighbors: Sequence[Iterable[int]]) -> "CSRGraph":
        """Build from a per-vertex neighbor-list sequence."""
        rows = [list(nbrs) for nbrs in neighbors]
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        sources = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        targets = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=sources.size)
        return CSRGraph.from_edges(sources, targets, num_vertices=len(rows))

    @staticmethod
    def from_networkx(graph) -> "CSRGraph":
        """Build from a :mod:`networkx` graph (nodes must be 0..n-1)."""
        n = graph.number_of_nodes()
        edges = np.asarray(list(graph.edges()), dtype=np.int64)
        if edges.size == 0:
            return CSRGraph.empty(n)
        return CSRGraph.from_edges(edges[:, 0], edges[:, 1], num_vertices=n)

    @staticmethod
    def empty(num_vertices: int) -> "CSRGraph":
        """Graph with ``num_vertices`` isolated vertices."""
        return CSRGraph(
            np.zeros(int(num_vertices) + 1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            validate=False,
        )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _check_invariants(self) -> None:
        indptr, indices, n = self._indptr, self._indices, self._n
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("neighbor index out of range")
        starts = indptr[:-1]
        ends = indptr[1:]
        # Sorted + unique within each list: indices must strictly increase
        # except exactly at list boundaries.
        if indices.size > 1:
            rises = np.flatnonzero(np.diff(indices.astype(np.int64)) <= 0) + 1
            boundary = set(starts[starts > 0].tolist())
            for pos in rises:
                if int(pos) not in boundary:
                    raise ValueError("neighbor lists must be sorted and duplicate-free")
        # No self loops.
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        if np.any(owner == indices):
            raise ValueError("self-loops are not allowed")
        # Symmetry: (u, v) present iff (v, u) present.
        key_fwd = owner * n + indices.astype(np.int64)
        key_rev = indices.astype(np.int64) * n + owner
        if not np.array_equal(np.sort(key_fwd), np.sort(key_rev)):
            raise ValueError("adjacency must be symmetric (undirected graph)")
        del ends

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """Row-offset array (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Flat neighbor array (read-only view)."""
        return self._indices

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._indices.size // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries, ``2 * num_edges``."""
        return int(self._indices.size)

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree array (``int64``, computed view-free)."""
        return np.diff(self._indptr)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    @property
    def mean_degree(self) -> float:
        return float(self.degrees.mean()) if self._n else 0.0

    def degree(self, vertex: int) -> int:
        self._check_vertex(vertex)
        return int(self._indptr[vertex + 1] - self._indptr[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        """Sorted neighbor list of ``vertex`` (read-only view)."""
        self._check_vertex(vertex)
        return self._indices[self._indptr[vertex] : self._indptr[vertex + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test in ``O(log deg(u))``."""
        self._check_vertex(u)
        self._check_vertex(v)
        nbrs = self.neighbors(u)
        pos = int(np.searchsorted(nbrs, v))
        return pos < nbrs.size and int(nbrs[pos]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once, as ``(u, v)`` with ``u < v``."""
        u, v = self.edge_array()
        yield from zip(u.tolist(), v.tolist(), strict=True)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected edge endpoints as two arrays with ``u < v``."""
        owner = np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(self._indptr)
        )
        mask = owner < self._indices
        return owner[mask], self._indices[mask].astype(np.int64)

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._n:
            raise IndexError(f"vertex {vertex} out of range [0, {self._n})")

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------

    def permute(self, permutation: np.ndarray) -> "CSRGraph":
        """Relabel vertices: new id of vertex ``v`` is ``permutation[v]``.

        ``permutation`` must be a bijection on ``range(n)``.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self._n,):
            raise ValueError("permutation must have length num_vertices")
        check = np.zeros(self._n, dtype=bool)
        if perm.size and (perm.min() < 0 or perm.max() >= self._n):
            raise ValueError("permutation values out of range")
        check[perm] = True
        if not check.all():
            raise ValueError("permutation must be a bijection")
        u, v = self.edge_array()
        return CSRGraph.from_edges(perm[u], perm[v], num_vertices=self._n)

    def subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Induced subgraph; kept vertices are renumbered in given order."""
        keep = np.asarray(vertices, dtype=np.int64)
        if keep.size != np.unique(keep).size:
            raise ValueError("vertex selection must not contain duplicates")
        if keep.size and (keep.min() < 0 or keep.max() >= self._n):
            raise ValueError("vertex selection out of range")
        newid = np.full(self._n, -1, dtype=np.int64)
        newid[keep] = np.arange(keep.size)
        u, v = self.edge_array()
        mask = (newid[u] >= 0) & (newid[v] >= 0)
        return CSRGraph.from_edges(
            newid[u[mask]], newid[v[mask]], num_vertices=keep.size
        )

    def to_scipy(self):
        """Pattern adjacency as ``scipy.sparse.csr_matrix`` of ones."""
        import scipy.sparse as sp

        data = np.ones(self._indices.size, dtype=np.int8)
        return sp.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()),
            shape=(self._n, self._n),
        )

    def to_networkx(self):
        """Convert to :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        u, v = self.edge_array()
        g.add_edges_from(zip(u.tolist(), v.tolist(), strict=True))
        return g

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __reduce__(self) -> tuple[object, tuple[np.ndarray, np.ndarray]]:
        # Unpickled arrays come back writable; rebuilding through
        # __init__ keeps a worker's copy frozen like the original.
        return _unpickle, (self._indptr, self._indices)

    def __hash__(self) -> int:
        return hash((self._n, self._indices.size, self._indices.tobytes()[:256]))

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self._n}, m={self.num_edges}, "
            f"max_deg={self.max_degree})"
        )

    def __len__(self) -> int:
        return self._n


def _unpickle(indptr: np.ndarray, indices: np.ndarray) -> CSRGraph:
    """Rebuild a pickled graph; it was validated when first built."""
    return CSRGraph(indptr, indices, validate=False)
