"""Vertex reordering — the layout lever of the performance-factor study.

The order vertices are numbered *is* the order lanes are packed into
wavefronts (thread id = vertex id under the thread mapping), so
relabeling the graph changes divergence and locality without touching
the algorithm. This module provides the classic orders:

* :func:`bfs_order` — breadth-first layout (locality for meshes),
* :func:`rcm_order` — reverse Cuthill–McKee (bandwidth minimization, the
  standard sparse-matrix layout),
* :func:`degree_order` — descending-degree layout (packs similar-degree
  vertices into the same wavefront — the static version of the
  executor's ``sort_by_degree``),
* :func:`random_order` — the adversarial control.

Each returns a permutation ``perm`` with ``perm[old] = new``, suitable
for :meth:`repro.graphs.csr.CSRGraph.permute`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .csr import CSRGraph

__all__ = [
    "bfs_order",
    "rcm_order",
    "degree_order",
    "random_order",
    "apply_order",
    "bandwidth",
]


def _positions_to_perm(positions: np.ndarray) -> np.ndarray:
    """Convert a visit sequence (new→old) into a perm (old→new)."""
    perm = np.empty(positions.size, dtype=np.int64)
    perm[positions] = np.arange(positions.size, dtype=np.int64)
    return perm


def bfs_order(graph: CSRGraph, *, source: int | None = None) -> np.ndarray:
    """Breadth-first relabeling; components are visited by smallest id.

    ``source`` seeds the first component (default: vertex 0).

    The search runs one level at a time. A level's queue order is its
    frontier's neighbor lists laid end to end, in frontier order, with
    already-visited vertices dropped and each vertex kept at its first
    occurrence, which is the order a vertex-at-a-time FIFO search
    enqueues them in.
    """
    n = graph.num_vertices
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = graph.indices
    visited = np.zeros(n, dtype=bool)
    sequence = np.empty(n, dtype=np.int64)
    pos = 0
    scan = 0  # every vertex below ``scan`` is visited
    seed = source
    while pos < n:
        if seed is None or visited[seed]:
            while visited[scan]:
                scan += 1
            seed = scan
        visited[seed] = True
        sequence[pos] = seed
        pos += 1
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            total = int(lengths.sum())
            if total == 0:
                break
            offsets = np.cumsum(lengths) - lengths
            rows = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, lengths)
            nbrs = indices[rows]
            nbrs = nbrs[~visited[nbrs]]
            _, first = np.unique(nbrs, return_index=True)
            frontier = nbrs[np.sort(first)].astype(np.int64)
            visited[frontier] = True
            sequence[pos : pos + frontier.size] = frontier
            pos += frontier.size
    return _positions_to_perm(sequence)


def rcm_order(graph: CSRGraph) -> np.ndarray:
    """Reverse Cuthill–McKee: BFS from a low-degree vertex, neighbors
    visited in ascending-degree order, sequence reversed."""
    n = graph.num_vertices
    deg = graph.degrees
    visited = np.zeros(n, dtype=bool)
    sequence: list[int] = []
    order_by_degree = np.argsort(deg, kind="stable")
    for seed in order_by_degree:
        seed = int(seed)
        if visited[seed]:
            continue
        visited[seed] = True
        queue: deque[int] = deque([seed])
        while queue:
            v = queue.popleft()
            sequence.append(v)
            nbrs = graph.neighbors(v)
            for w in nbrs[np.argsort(deg[nbrs], kind="stable")]:
                w = int(w)
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    sequence.reverse()
    return _positions_to_perm(np.asarray(sequence, dtype=np.int64))


def degree_order(graph: CSRGraph, *, descending: bool = True) -> np.ndarray:
    """Relabel by degree (descending default — heavy wavefronts first)."""
    key = -graph.degrees if descending else graph.degrees
    sequence = np.argsort(key, kind="stable").astype(np.int64)
    return _positions_to_perm(sequence)


def random_order(graph: CSRGraph, *, seed: int = 0) -> np.ndarray:
    """Uniform random relabeling (destroys any locality)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(graph.num_vertices).astype(np.int64)


def apply_order(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Relabel ``graph`` by ``perm`` (alias of :meth:`CSRGraph.permute`)."""
    return graph.permute(perm)


def bandwidth(graph: CSRGraph) -> int:
    """Matrix bandwidth ``max |u - v|`` over edges (0 for edgeless)."""
    u, v = graph.edge_array()
    if u.size == 0:
        return 0
    return int(np.abs(u - v).max())
