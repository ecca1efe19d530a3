"""Jones–Plassmann coloring — the classic parallel independent-set method.

Round ``k``: every uncolored vertex whose random priority beats all its
uncolored neighbors' joins the independent set and takes the *smallest*
color absent from its (already colored) neighborhood. Compared with the
max-min baseline it extracts one set per sweep instead of two, but the
first-fit choice packs colors tighter — the approach-comparison
experiment (E3) contrasts exactly these behaviors.
"""

from __future__ import annotations

import numpy as np

from ..engine.context import RunContext, resolve_context
from ..graphs.csr import CSRGraph
from ._nbr import PriorityCounts
from .base import UNCOLORED, ColoringResult
from .kernels import GPUExecutor, SweepLog
from .priorities import make_priorities

__all__ = ["jones_plassmann_coloring"]


def jones_plassmann_coloring(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    seed: int | None = None,
    priority: str = "random",
    max_iterations: int | None = None,
    context: RunContext | None = None,
) -> ColoringResult:
    """Color ``graph`` with Jones–Plassmann priority rounds.

    Priorities are unique (the globally largest uncolored priority
    always wins its neighborhood, so every round makes progress and at
    most ``n`` rounds run); ``priority`` selects the function — see
    :mod:`repro.coloring.priorities`. ``context`` supplies the default
    seed and array backend when given.
    """
    ctx = resolve_context(context, executor)
    seed = ctx.resolve_seed(seed)
    backend = ctx.backend
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
        if k >= cap:
            break
        won = counts.higher[active_ids] == 0
        winner_ids = active_ids[won]
        # Winners form an independent set among uncolored vertices, so
        # assigning all their first-fit colors at once cannot conflict.
        colors[winner_ids] = backend.first_fit_colors(graph, colors, winner_ids)
        counts.retire(winner_ids)

        log.sweep(k, active_ids.size, winner_ids.size)
        log.vertices(f"jp_it{k}", degrees, active_ids)
        active_ids = active_ids[~won]
        k += 1

    iterations, total_cycles = log.finish()
    return ColoringResult(
        algorithm="jones-plassmann",
        colors=colors,
        iterations=iterations,
        total_cycles=total_cycles,
        device=executor.device if executor is not None else None,
    )
