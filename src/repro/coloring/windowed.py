"""Windowed speculative coloring — bounded forbidden arrays.

The practical GPU refinement of Gebremedhin–Manne: a thread cannot
afford an unbounded forbidden-color array, so each pass considers only
a *window* of ``W`` colors ``[b, b + W)``. A vertex takes the smallest
free in-window color; if its neighborhood blocks the whole window it
*defers* to the next pass (``b += W``). Small windows fit the forbidden
array in registers/LDS (higher occupancy — see
:func:`repro.gpusim.occupancy.occupancy`) at the price of extra passes
for high-degree vertices; ``window ≥ Δ + 1`` degenerates to plain
speculative coloring.
"""

from __future__ import annotations

import numpy as np

from ..engine.backend import first_free_offsets
from ..graphs.csr import CSRGraph
from .base import UNCOLORED, ColoringResult
from .kernels import GPUExecutor, SweepLog

__all__ = ["windowed_speculative_coloring", "window_first_fit"]


def window_first_fit(
    graph: CSRGraph,
    colors: np.ndarray,
    vertices: np.ndarray,
    base: int,
    window: int,
) -> np.ndarray:
    """Smallest free color in ``[base, base + window)`` per vertex, or −1.

    The first free color at or above ``base`` from
    :func:`~repro.engine.backend.first_free_offsets`, kept when it lies in
    the window: exactly what a bounded forbidden array computes.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    verts = np.asarray(vertices, dtype=np.int64).ravel()
    offsets = first_free_offsets(graph, np.asarray(colors, dtype=np.int64), verts, base)
    return np.where(offsets < window, base + offsets, -1)


def windowed_speculative_coloring(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    window: int = 32,
    seed: int = 0,
    max_iterations: int | None = None,
) -> ColoringResult:
    """Speculate/resolve coloring with a ``window``-bounded palette.

    Each pass: every active vertex proposes its smallest free in-window
    color (or defers); conflicts uncolor the lower-priority endpoint;
    when no active vertex can be placed in the current window any more,
    the window advances. Guaranteed to finish: a vertex of degree ``d``
    is placeable once ``base + window > d``.
    """
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    rng = np.random.default_rng(seed)
    priorities = rng.permutation(n)
    degrees = graph.degrees
    edge_u, edge_v = graph.edge_array()
    log = SweepLog(executor)
    cap = max_iterations if max_iterations is not None else 2 * n + 2 * graph.max_degree + 4

    active = np.arange(n, dtype=np.int64)
    base = 0
    k = 0
    while active.size:
        if k >= cap:
            break
        num_active_before = int(active.size)
        proposals = window_first_fit(graph, colors, active, base, window)
        placeable = proposals >= 0
        if not placeable.any():
            base += window  # whole window blocked for everyone: advance
            continue
        placed = active[placeable]
        colors[placed] = proposals[placeable]

        same = (colors[edge_u] == colors[edge_v]) & (colors[edge_u] != UNCOLORED)
        cu, cv = edge_u[same], edge_v[same]
        colors[np.where(priorities[cu] < priorities[cv], cu, cv)] = UNCOLORED
        # every uncolored vertex retries: the conflict losers (a conflict
        # needs two ends placed this round) and the deferred
        active = np.flatnonzero(colors == UNCOLORED)

        log.sweep(k, num_active_before, num_active_before - active.size)
        log.vertices(f"win_assign_it{k}", degrees, placed)
        log.vertices(f"win_detect_it{k}", degrees, placed)
        k += 1

    iterations, total_cycles = log.finish()
    return ColoringResult(
        algorithm=f"windowed-speculative-w{window}",
        colors=colors,
        iterations=iterations,
        total_cycles=total_cycles,
        device=executor.device if executor is not None else None,
        extras={"window": window, "final_base": base},
    )
