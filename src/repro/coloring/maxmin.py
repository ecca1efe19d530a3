"""Max-min independent-set coloring — the paper's baseline GPU algorithm.

This is the Pannotia ``color_maxmin`` kernel (first author's own suite):
every uncolored vertex compares its random priority against its
uncolored neighbors'; local *maxima* take color ``2k`` and local
*minima* take ``2k + 1`` in round ``k`` — two independent sets per
kernel sweep, halving the iteration count of plain Jones–Plassmann at
the cost of a second comparison per neighbor.

The numpy implementation performs the real algorithm (the returned
coloring is genuine and validated); when a
:class:`~repro.coloring.kernels.GPUExecutor` is supplied, each sweep is
also charged simulated device time for the active set it scanned.
"""

from __future__ import annotations

import numpy as np

from ..engine.context import RunContext, resolve_context
from ..graphs.csr import CSRGraph
from ._nbr import PriorityCounts
from .base import UNCOLORED, ColoringResult
from .kernels import GPUExecutor, SweepLog
from .priorities import make_priorities

__all__ = ["maxmin_coloring", "compact_colors"]


def compact_colors(colors: np.ndarray) -> np.ndarray:
    """Remap used colors to a dense ``0..k-1`` range (order-preserving)."""
    out = np.asarray(colors, dtype=np.int64).copy()
    mask = out != UNCOLORED
    used = out[mask]
    if used.size and used.max() < out.size:
        # rank among the used colors: a running count of those that occur
        out[mask] = (np.cumsum(np.bincount(used) > 0) - 1)[used]
    else:
        out[mask] = np.unique(used, return_inverse=True)[1]
    return out


def maxmin_coloring(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    seed: int | None = None,
    priority: str = "random",
    max_iterations: int | None = None,
    stop_when_active_below: int = 0,
    compact: bool = True,
    context: RunContext | None = None,
) -> ColoringResult:
    """Color ``graph`` with the max-min independent-set method.

    Parameters
    ----------
    graph:
        Input graph.
    executor:
        Optional simulated-GPU execution engine; when given, every sweep
        is logged and timed once the loop ends (see
        :class:`~repro.coloring.kernels.SweepLog`), and the result
        carries the total device cycles.
    seed:
        Seed for the priority tie-break permutation (priorities are
        unique, so progress is guaranteed: the globally extreme
        uncolored vertex is always a local extremum). ``None`` falls
        back to the run context's seed.
    priority:
        Priority function — ``random`` (paper baseline), ``degree``
        (hubs colored first), or ``smallest_last``; see
        :mod:`repro.coloring.priorities`.
    max_iterations:
        Safety cap; the algorithm needs at most ``n`` sweeps.
    stop_when_active_below:
        Return early (with uncolored vertices) once the active set drops
        below this count — the hook the algorithm-switch hybrid uses to
        hand the low-parallelism tail to speculative first-fit.
    compact:
        Remap the final colors to a dense ``0..k-1`` range.
    context:
        Run context supplying the default seed; resolved from
        ``executor`` (or a fresh default) when omitted.
    """
    ctx = resolve_context(context, executor)
    seed = ctx.resolve_seed(seed)
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = make_priorities(graph, priority, seed=seed)
    degrees = graph.degrees
    log = SweepLog(executor)
    cap = max_iterations if max_iterations is not None else n + 1

    counts = PriorityCounts(graph, priorities)
    # the uncolored ids, ascending; each sweep reads and shrinks only this
    active_ids = np.arange(n, dtype=np.int64)
    k = 0
    while active_ids.size:
        if k >= cap or active_ids.size < stop_when_active_below:
            break
        # One kernel sweep: every uncolored vertex reads uncolored
        # neighbors' priorities and tests for local max / local min
        # (decided here from the counts of uncolored neighbors above
        # and below it).
        is_max, is_min = counts.extrema(active_ids)
        colors[active_ids[is_max]] = 2 * k
        colors[active_ids[is_min]] = 2 * k + 1
        done = is_max | is_min
        newly = active_ids[done]
        counts.retire(newly)

        log.sweep(k, active_ids.size, newly.size)
        log.vertices(f"maxmin_it{k}", degrees, active_ids)
        active_ids = active_ids[~done]
        k += 1

    iterations, total_cycles = log.finish()
    return ColoringResult(
        algorithm="maxmin",
        colors=compact_colors(colors) if compact else colors,
        iterations=iterations,
        total_cycles=total_cycles,
        device=executor.device if executor is not None else None,
    )
