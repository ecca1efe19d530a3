"""Edge-centric coloring kernels — uniform work items by construction.

The thread-per-vertex mapping diverges because a lane's work is its
vertex's degree. The *edge-centric* formulation sidesteps divergence
entirely: one work item per directed edge, each doing O(1) work (read
the neighbor's state, atomically fold into the owner's accumulator),
followed by an O(1)-per-vertex decision kernel. Perfect balance — but
it pays for it with atomics on every edge and a second kernel per
sweep, so it loses to vertex kernels on uniform graphs and wins on
skewed ones. That crossover is experiment E13.

The *algorithm* is exactly max-min (same priorities, same seed → the
identical coloring as :func:`repro.coloring.maxmin.maxmin_coloring`);
only the simulated kernel organization differs.
"""

from __future__ import annotations

import numpy as np

from ..engine.context import RunContext, resolve_context
from ..graphs.csr import CSRGraph
from ._nbr import PriorityCounts
from .base import UNCOLORED, ColoringResult
from .kernels import GPUExecutor, SweepLog
from .maxmin import compact_colors
from .priorities import make_priorities

__all__ = ["edge_centric_maxmin", "edge_kernel_cycles_per_item"]


def edge_kernel_cycles_per_item(executor: GPUExecutor) -> float:
    """Cycles one directed-edge work item costs.

    Read the two endpoint states (scattered) plus one global atomic
    max/min fold into the owner's accumulator, plus a couple of ALU ops.
    Uniform across items — that is the whole point.
    """
    mem = executor.memory
    dev = executor.device
    return float(
        2.0 * mem.scattered_element_cycles + dev.atomic_cycles / 4.0 + 2.0 * dev.alu_cycles
    )


def _vertex_decision_cycles(executor: GPUExecutor) -> float:
    """O(1) per-vertex decision kernel (compare accumulators, write)."""
    mem = executor.memory
    dev = executor.device
    return float(4.0 * mem.scattered_element_cycles + 4.0 * dev.alu_cycles)


def edge_centric_maxmin(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    seed: int | None = None,
    priority: str = "random",
    max_iterations: int | None = None,
    context: RunContext | None = None,
) -> ColoringResult:
    """Max-min coloring timed as edge-centric kernels.

    Per sweep: an edge kernel over every directed edge incident to an
    uncolored vertex (uniform O(1) items — zero divergence), then a
    vertex decision kernel over the active set. Produces exactly the
    coloring :func:`maxmin_coloring` produces for the same seed.
    ``context`` supplies the default seed when given.
    """
    ctx = resolve_context(context, executor)
    seed = ctx.resolve_seed(seed)
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = make_priorities(graph, priority, seed=seed)
    degrees = graph.degrees
    log = SweepLog(executor)
    edge_cycles = decide_cycles = 0.0
    if executor is not None:
        edge_cycles = edge_kernel_cycles_per_item(executor)
        decide_cycles = _vertex_decision_cycles(executor)
    cap = max_iterations if max_iterations is not None else n + 1

    counts = PriorityCounts(graph, priorities)
    # the uncolored ids, ascending; each sweep reads and shrinks only this
    active_ids = np.arange(n, dtype=np.int64)
    k = 0
    while active_ids.size:
        if k >= cap:
            break
        is_max, is_min = counts.extrema(active_ids)
        colors[active_ids[is_max]] = 2 * k
        colors[active_ids[is_min]] = 2 * k + 1
        done = is_max | is_min
        newly = active_ids[done]
        counts.retire(newly)

        log.sweep(k, active_ids.size, newly.size)
        num_edge_items = int(degrees[active_ids].sum())
        log.uniform(
            f"ec_edges_it{k}",
            num_edge_items,
            edge_cycles,
            traffic_elements=2.0 * num_edge_items,
        )
        log.uniform(
            f"ec_decide_it{k}",
            int(active_ids.size),
            decide_cycles,
            traffic_elements=4.0 * active_ids.size,
        )
        active_ids = active_ids[~done]
        k += 1

    iterations, total_cycles = log.finish()
    return ColoringResult(
        algorithm="edge-centric-maxmin",
        colors=compact_colors(colors),
        iterations=iterations,
        total_cycles=total_cycles,
        device=executor.device if executor is not None else None,
    )
