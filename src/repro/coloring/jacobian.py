"""Jacobian compression — the end-to-end use case of distance-2 coloring.

Sparse Jacobian estimation by finite differences: columns that share no
row can be perturbed together, so the number of function evaluations
drops from ``n`` columns to the number of *column groups* — a proper
coloring of the column-intersection structure (equivalently, a partial
distance-2 coloring of the bipartite row/column graph).

This module implements the full pipeline directly on the sparsity
pattern (never forming AᵀA):

* :func:`column_intersection_coloring` — greedy column coloring over the
  pattern, with natural or largest-first ordering.
* :func:`seed_matrix` — the 0/1 seed ``S`` with one column per group.
* :func:`recover_jacobian` — exact recovery of every stored entry of
  ``J`` from the compressed product ``J @ S`` (each row sees at most one
  member of each group, by construction).

The round-trip ``recover(J @ seed) == J`` is the correctness test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "column_intersection_coloring",
    "seed_matrix",
    "recover_jacobian",
    "compression_ratio",
]


def _pattern_csc(pattern) -> sp.csc_matrix:
    import scipy.sparse as sp

    mat = sp.csc_matrix(pattern)
    mat.eliminate_zeros()
    return mat


def column_intersection_coloring(
    pattern, *, order: str = "largest_first"
) -> np.ndarray:
    """Greedy structurally-orthogonal column coloring of ``pattern``.

    Two columns get different colors iff some row touches both. Works
    row-list-wise on the pattern itself (no AᵀA). ``order`` is
    ``natural`` or ``largest_first`` (columns by descending nnz —
    usually fewer groups).
    """
    mat = _pattern_csc(pattern)
    rows_of = np.split(mat.indices, mat.indptr[1:-1])
    n_rows, n_cols = mat.shape
    if order == "natural":
        visit = range(n_cols)
    elif order == "largest_first":
        nnz = np.diff(mat.indptr)
        visit = np.argsort(-nnz, kind="stable")
    else:
        raise ValueError(f"unknown order {order!r}")

    colors = np.full(n_cols, -1, dtype=np.int64)
    # forbidden[r, :] tracked sparsely: for each row, the set of colors
    # already present in that row
    row_colors: list[set[int]] = [set() for _ in range(n_rows)]
    for j in visit:
        j = int(j)
        blocked: set[int] = set()
        for r in rows_of[j]:
            blocked |= row_colors[int(r)]
        c = 0
        while c in blocked:
            c += 1
        colors[j] = c
        for r in rows_of[j]:
            row_colors[int(r)].add(c)
    return colors


def seed_matrix(colors: np.ndarray) -> np.ndarray:
    """The 0/1 seed ``S`` (n_cols × n_groups): ``S[j, colors[j]] = 1``."""
    cols = np.asarray(colors, dtype=np.int64)
    if cols.size and cols.min() < 0:
        raise ValueError("colors must be a complete coloring (no negatives)")
    k = int(cols.max()) + 1 if cols.size else 0
    seed = np.zeros((cols.size, k), dtype=np.float64)
    seed[np.arange(cols.size), cols] = 1.0
    return seed


def recover_jacobian(pattern, compressed: np.ndarray, colors: np.ndarray) -> sp.csr_matrix:
    """Reconstruct ``J`` from ``compressed = J @ seed_matrix(colors)``.

    For a structurally-orthogonal coloring, entry ``J[r, j]`` is exactly
    ``compressed[r, colors[j]]`` (no other column of that group touches
    row ``r``). Returns a CSR matrix with the pattern's sparsity.
    """
    import scipy.sparse as sp

    mat = sp.csr_matrix(pattern)
    mat.eliminate_zeros()
    cols = np.asarray(colors, dtype=np.int64)
    comp = np.asarray(compressed, dtype=np.float64)
    if comp.shape[0] != mat.shape[0]:
        raise ValueError("compressed row count must match the pattern")
    if cols.shape != (mat.shape[1],):
        raise ValueError("colors must have one entry per column")
    if cols.size and comp.shape[1] <= cols.max():
        raise ValueError("compressed has fewer groups than the coloring uses")
    coo = mat.tocoo()
    data = comp[coo.row, cols[coo.col]]
    return sp.csr_matrix((data, (coo.row, coo.col)), shape=mat.shape)


def compression_ratio(colors: np.ndarray) -> float:
    """Function evaluations saved: ``n_cols / n_groups``."""
    cols = np.asarray(colors, dtype=np.int64)
    if cols.size == 0:
        return 1.0
    groups = int(cols.max()) + 1
    return cols.size / groups
