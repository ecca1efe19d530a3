"""Speculative first-fit coloring (Gebremedhin–Manne style).

The third GPU approach the paper characterizes: *optimistic* rather
than independent-set based. Every active vertex first-fit colors itself
in parallel against the current color array (kernel 1); a detection
kernel then finds monochromatic edges and uncolors the lower-priority
endpoint (kernel 2); the losers retry next round. Rounds shrink
geometrically — few launches, but each round pays two kernels and the
first round touches every vertex.

:func:`speculative_rounds` runs the loop from an arbitrary starting
state, which the algorithm-switch hybrid reuses to finish the
low-parallelism tail left by max-min.
"""

from __future__ import annotations

import numpy as np

from ..engine.context import RunContext, resolve_context
from ..graphs.csr import CSRGraph
from .base import UNCOLORED, ColoringResult, IterationRecord
from .kernels import GPUExecutor, SweepLog

__all__ = ["speculative_coloring", "speculative_rounds"]


def speculative_rounds(
    graph: CSRGraph,
    colors: np.ndarray,
    active: np.ndarray,
    priorities: np.ndarray,
    executor: GPUExecutor | None,
    *,
    name_prefix: str = "spec",
    start_index: int = 0,
    max_iterations: int | None = None,
    context: RunContext | None = None,
) -> tuple[list[IterationRecord], float]:
    """Run speculate/resolve rounds in place until ``active`` drains.

    ``colors`` is modified in place; already-colored vertices outside
    ``active`` are respected (an active vertex never picks a stable
    neighbor's color, so conflicts only arise between active vertices
    and the invariant "stable set is conflict-free" is preserved).
    Returns the per-round records and the total simulated cycles.
    """
    ctx = resolve_context(context, executor)
    backend = ctx.backend
    degrees = graph.degrees
    edge_u, edge_v = graph.edge_array()
    log = SweepLog(executor)
    cap = max_iterations if max_iterations is not None else graph.num_vertices + 1
    k = 0
    while active.size:
        if k >= cap:
            break
        # Kernel 1: every active vertex speculatively first-fit colors
        # itself against the snapshot (assignments land "simultaneously").
        colors[active] = backend.first_fit_colors(graph, colors, active)

        # Kernel 2: conflict detection — a monochromatic edge uncolors
        # its lower-priority endpoint (the loser retries next round).
        same = (colors[edge_u] == colors[edge_v]) & (colors[edge_u] != UNCOLORED)
        cu, cv = edge_u[same], edge_v[same]
        lost = np.zeros(graph.num_vertices, dtype=bool)
        lost[np.where(priorities[cu] < priorities[cv], cu, cv)] = True
        losers = np.flatnonzero(lost)
        colors[losers] = UNCOLORED

        idx = start_index + k
        log.sweep(idx, active.size, active.size - losers.size)
        log.vertices(f"{name_prefix}_assign_it{idx}", degrees, active)
        log.vertices(f"{name_prefix}_detect_it{idx}", degrees, active)
        active = losers
        k += 1
    return log.finish()


def speculative_coloring(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    seed: int | None = None,
    max_iterations: int | None = None,
    context: RunContext | None = None,
) -> ColoringResult:
    """Color ``graph`` by speculate-then-resolve rounds.

    Conflicts resolve by random priority (unique permutation), so the
    highest-priority vertex of any conflict always keeps its color and
    every round strictly shrinks the active set. ``context`` supplies
    the default seed and array backend when given.
    """
    ctx = resolve_context(context, executor)
    seed = ctx.resolve_seed(seed)
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    rng = np.random.default_rng(seed)
    priorities = rng.permutation(n)
    iterations, total_cycles = speculative_rounds(
        graph,
        colors,
        np.arange(n, dtype=np.int64),
        priorities,
        executor,
        max_iterations=max_iterations,
        context=ctx,
    )
    return ColoringResult(
        algorithm="speculative",
        colors=colors,
        iterations=iterations,
        total_cycles=total_cycles,
        device=executor.device if executor is not None else None,
    )
