#!/usr/bin/env python
"""Domain example: scheduling a parallel Gauss–Seidel sweep by coloring.

The paper's motivation: "the first step of many graph applications is
graph coloring/partitioning to obtain sets of independent vertices for
subsequent parallel computations." The classic instance is multicolor
Gauss–Seidel / SOR: color the matrix adjacency, then sweep color classes
one at a time — all unknowns of one color update in parallel because
they are pairwise independent.

This example colors a 3-D FEM-style grid (a `G3_circuit`-class input),
builds the color-class schedule, verifies each class is independent, and
reports the parallelism profile (class sizes) per algorithm — fewer
colors means fewer serialized sweep phases.

Run:  python examples/sparse_solver_scheduling.py
"""

import numpy as np

from repro import RunContext, grid_3d
from repro.analysis import format_table
from repro.coloring import (
    dsatur,
    jones_plassmann_coloring,
    maxmin_coloring,
)


def color_class_schedule(colors: np.ndarray) -> list[np.ndarray]:
    """Vertices grouped by color — the sweep phases, in order."""
    classes = []
    for c in range(int(colors.max()) + 1):
        members = np.flatnonzero(colors == c)
        if members.size:
            classes.append(members)
    return classes


def verify_independent(graph, vertices: np.ndarray) -> None:
    """Assert no edge connects two vertices of one sweep phase."""
    marked = np.zeros(graph.num_vertices, dtype=bool)
    marked[vertices] = True
    u, v = graph.edge_array()
    both = marked[u] & marked[v]
    assert not both.any(), "sweep phase is not independent!"


def main() -> None:
    # A 3-D 7-point stencil: the adjacency of a FEM/circuit matrix.
    graph = grid_3d(24, 24, 24)
    print(f"matrix adjacency: {graph}\n")

    executor = RunContext().executor()
    candidates = {
        "maxmin (GPU)": maxmin_coloring(graph, executor, seed=0),
        "jones-plassmann (GPU)": jones_plassmann_coloring(graph, executor, seed=0),
        "dsatur (CPU reference)": dsatur(graph),
    }

    rows = []
    for label, result in candidates.items():
        result.validate(graph)
        classes = color_class_schedule(result.colors)
        for phase in classes:
            verify_independent(graph, phase)
        sizes = np.array([len(c) for c in classes])
        rows.append(
            {
                "algorithm": label,
                "sweep_phases": len(classes),
                "min_phase": int(sizes.min()),
                "mean_phase": int(sizes.mean()),
                "max_phase": int(sizes.max()),
                "coloring_time_ms": round(result.time_ms, 3),
            }
        )
    print(
        format_table(
            rows,
            title="multicolor Gauss-Seidel schedule (all phases verified independent)",
        )
    )
    print(
        "\nEvery phase updates its unknowns fully in parallel; fewer phases "
        "= fewer kernel\nlaunches per sweep. A 7-point stencil is "
        "2-colorable (red-black); the GPU\nalgorithms come close while "
        "parallelizing the coloring itself."
    )


if __name__ == "__main__":
    main()
