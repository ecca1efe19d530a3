#!/usr/bin/env python
"""Domain example: Jacobian compression via distance-2 coloring.

Estimating a sparse Jacobian by finite differences needs one function
evaluation per *color group* of columns, where two columns may share a
group iff no row touches both — exactly a distance-2 coloring of the
column-intersection graph. Fewer colors = fewer evaluations.

This example builds sparse Jacobian patterns (a 2-D stencil operator
and a random sparse system), forms the column-intersection graph,
colors it at distance 2 with both the sequential reference and the
GPU-style speculative kernel, and reports the compression achieved.

Run:  python examples/jacobian_compression.py
"""

import numpy as np
import scipy.sparse as sp

from repro.analysis import format_table
from repro.coloring.speculative import speculative_coloring
from repro.coloring.jacobian import (
    column_intersection_coloring,
    compression_ratio,
    recover_jacobian,
    seed_matrix,
)
from repro.engine.context import RunContext
from repro.graphs.csr import CSRGraph


def stencil_jacobian(n_side: int) -> sp.csr_matrix:
    """5-point Laplacian pattern on an n×n grid (classic PDE Jacobian)."""
    n = n_side * n_side
    idx = np.arange(n).reshape(n_side, n_side)
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    for a, b in [
        (idx[:, :-1], idx[:, 1:]),
        (idx[:-1, :], idx[1:, :]),
    ]:
        rows += [a.ravel(), b.ravel()]
        cols += [b.ravel(), a.ravel()]
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    return sp.csr_matrix((np.ones(r.size), (r, c)), shape=(n, n))


def random_jacobian(rows: int, cols: int, nnz_per_row: int, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    r = np.repeat(np.arange(rows), nnz_per_row)
    c = rng.integers(0, cols, size=r.size)
    return sp.csr_matrix((np.ones(r.size), (r, c)), shape=(rows, cols))


def column_intersection_graph(jac: sp.csr_matrix) -> CSRGraph:
    """Columns are adjacent iff some row touches both (pattern of AᵀA)."""
    pattern = (jac.T @ jac).tocoo()
    mask = pattern.row != pattern.col
    return CSRGraph.from_edges(
        pattern.row[mask], pattern.col[mask], num_vertices=jac.shape[1]
    )


def main() -> None:
    problems = {
        "2-D stencil 40×40": stencil_jacobian(40),
        "random 3000×1200, 4 nnz/row": random_jacobian(3000, 1200, 4, seed=1),
    }
    rows = []
    for label, jac in problems.items():
        pattern = jac != 0
        # the direct pipeline: pattern → column coloring → seed → recover
        colors = column_intersection_coloring(pattern)
        rng = np.random.default_rng(7)
        values = jac.copy()
        values.data = rng.normal(size=values.data.size)  # a "real" Jacobian
        compressed = values @ seed_matrix(colors)  # one f-eval per group
        recovered = recover_jacobian(pattern, compressed, colors)
        exact = abs(recovered - values).max() < 1e-12

        # the GPU view: the same structure as a distance-1 coloring of
        # the column-intersection graph, on the simulated device
        graph = column_intersection_graph(jac)
        gpu = speculative_coloring(graph, RunContext().executor(), seed=0)
        gpu.validate(graph)

        cols = jac.shape[1]
        rows.append(
            {
                "problem": label,
                "columns": cols,
                "groups": int(colors.max()) + 1,
                "compression": f"{compression_ratio(colors):.1f}x",
                "recovery_exact": exact,
                "gpu_groups": gpu.num_colors,
                "gpu_time_ms": round(gpu.time_ms, 3),
            }
        )
    print(format_table(rows, title="Jacobian compression by structurally-orthogonal coloring"))
    print(
        "\nEach color group needs one perturbed function evaluation instead "
        "of one per column,\nand every stored entry of J is recovered "
        "exactly from the compressed product."
    )


if __name__ == "__main__":
    main()
