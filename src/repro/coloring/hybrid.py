"""The paper's hybrid designs.

Two distinct "hybrid" ideas appear in the paper, both implemented here:

1. **Hybrid mapping** — degree-binned kernels (low-degree vertices run
   thread-per-vertex, high-degree run wavefront-per-vertex). That is a
   property of the *execution engine*, not the algorithm: an executor
   built with ``RunContext(...).executor(mapping="hybrid",
   degree_threshold=...)`` runs any algorithm unchanged (see
   :class:`~repro.coloring.kernels.ExecutionConfig`).

2. **Hybrid algorithm (algorithm switch)** — run max-min while the
   active set is large (massive parallelism amortizes the sweeps), then
   switch to speculative first-fit for the tail, where few active
   vertices would otherwise pay many near-empty kernel launches.
   :func:`hybrid_switch_coloring` implements the switch.
"""

from __future__ import annotations

import numpy as np

from ..engine.context import RunContext, resolve_context
from ..graphs.csr import CSRGraph
from .base import UNCOLORED, ColoringResult
from .kernels import GPUExecutor
from .maxmin import compact_colors, maxmin_coloring
from .speculative import speculative_rounds

__all__ = ["hybrid_switch_coloring"]


def hybrid_switch_coloring(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    seed: int | None = None,
    switch_fraction: float = 0.05,
    switch_below: int | None = None,
    max_iterations: int | None = None,
    context: RunContext | None = None,
) -> ColoringResult:
    """Max-min for the bulk, speculative first-fit for the tail.

    Parameters
    ----------
    switch_fraction:
        Switch when the active set drops below this fraction of ``n``
        (ignored when ``switch_below`` is given). ``0`` never switches
        (pure max-min); ``1.0`` switches immediately (pure speculative).
    switch_below:
        Absolute active-set threshold overriding ``switch_fraction``.
    context:
        Run context supplying the default seed and the array backend.
    """
    if not 0.0 <= switch_fraction <= 1.0:
        raise ValueError("switch_fraction must be in [0, 1]")
    ctx = resolve_context(context, executor)
    seed = ctx.resolve_seed(seed)
    n = graph.num_vertices
    if switch_below is not None:
        threshold = int(switch_below)
    elif switch_fraction >= 1.0:
        threshold = n + 1  # even the full vertex set is "below" → immediate
    else:
        threshold = int(np.ceil(switch_fraction * n))

    phase1 = maxmin_coloring(
        graph,
        executor,
        seed=seed,
        max_iterations=max_iterations,
        stop_when_active_below=threshold,
        compact=False,
        context=ctx,
    )
    colors = phase1.colors.copy()
    remaining = np.flatnonzero(colors == UNCOLORED)
    iterations = list(phase1.iterations)
    total_cycles = phase1.total_cycles

    if remaining.size:
        rng = np.random.default_rng(seed + 1)
        priorities = rng.permutation(n)
        tail_iters, tail_cycles = speculative_rounds(
            graph,
            colors,
            remaining,
            priorities,
            executor,
            name_prefix="switch_spec",
            start_index=len(iterations),
            max_iterations=max_iterations,
            context=ctx,
        )
        iterations.extend(tail_iters)
        total_cycles += tail_cycles

    return ColoringResult(
        algorithm="hybrid-switch",
        colors=compact_colors(colors),
        iterations=iterations,
        total_cycles=total_cycles,
        device=executor.device if executor is not None else None,
        extras={
            "switch_threshold": threshold,
            "maxmin_iterations": len(phase1.iterations),
            "tail_iterations": len(iterations) - len(phase1.iterations),
        },
    )
