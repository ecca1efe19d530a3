"""Distance-2 graph coloring — the standard extension of the problem.

A distance-2 coloring gives distinct colors to any two vertices within
two hops. It is the coloring used to compress Jacobian/Hessian
evaluations (columns sharing no row may share a color) and to schedule
conflict-free updates when writes touch the whole neighborhood — the
natural "future work" extension of the paper's kernels, built from the
same ingredients: speculate in parallel, detect conflicts, retry.

Both a sequential reference and a GPU-style speculative implementation
are provided; the speculative kernels run on the same execution engine,
with per-vertex work proportional to the *two-hop* neighborhood size.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from .base import UNCOLORED, ColoringResult, InvalidColoringError, IterationRecord
from .kernels import GPUExecutor, SweepLog

__all__ = [
    "greedy_distance2",
    "speculative_distance2",
    "validate_distance2",
    "is_valid_distance2",
    "two_hop_work",
]


def two_hop_work(graph: CSRGraph) -> np.ndarray:
    """Per-vertex distance-2 scan size: ``deg(v) + Σ_{w∈N(v)} deg(w)``.

    This is the work a distance-2 kernel lane performs, and what the
    execution engine should be charged with instead of plain degrees.
    """
    deg = graph.degrees.astype(np.int64)
    if graph.indices.size == 0:
        return deg.copy()
    nbr_deg_sum = np.zeros(graph.num_vertices, dtype=np.int64)
    owner = np.repeat(np.arange(graph.num_vertices), deg)
    np.add.at(nbr_deg_sum, owner, deg[graph.indices])
    return deg + nbr_deg_sum


def _distance2_conflicts(
    graph: CSRGraph, colors: np.ndarray, priorities: np.ndarray
) -> np.ndarray:
    """Vertices that must uncolor: losers of any d≤2 monochromatic pair.

    Adjacent conflicts come from the edge list; two-hop conflicts are
    same-colored vertices sharing a *center* neighbor — found by sorting
    the adjacency entries by (center, neighbor color) and scanning runs.
    """
    losers: list[np.ndarray] = []
    # distance-1
    u, v = graph.edge_array()
    same = (colors[u] == colors[v]) & (colors[u] != UNCOLORED)
    cu, cv = u[same], v[same]
    losers.append(np.where(priorities[cu] < priorities[cv], cu, cv))

    # distance-2: group each center's colored neighbors by color
    deg = graph.degrees
    center = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), deg)
    nbr = graph.indices.astype(np.int64)
    col = colors[nbr]
    keep = col != UNCOLORED
    center, nbr, col = center[keep], nbr[keep], col[keep]
    if center.size:
        # sort by (center, color, priority) so each run's last entry is
        # its highest-priority member — the survivor
        order = np.lexsort((priorities[nbr], col, center))
        center, nbr, col = center[order], nbr[order], col[order]
        same_run = (center[1:] == center[:-1]) & (col[1:] == col[:-1])
        # every entry that is followed by a same-run entry loses
        losers.append(nbr[:-1][same_run])
    out = np.unique(np.concatenate(losers)) if losers else np.empty(0, np.int64)
    return out


def is_valid_distance2(graph: CSRGraph, colors: np.ndarray) -> bool:
    """True iff ``colors`` is a complete, proper distance-2 coloring."""
    arr = np.asarray(colors, dtype=np.int64)
    if arr.shape != (graph.num_vertices,):
        return False
    if np.any(arr < 0):
        return False
    # any conflict loser means invalid; priorities are irrelevant here
    dummy = np.arange(graph.num_vertices)
    return _distance2_conflicts(graph, arr, dummy).size == 0


def validate_distance2(graph: CSRGraph, colors: np.ndarray) -> None:
    """Raise :class:`InvalidColoringError` unless distance-2 proper."""
    if not is_valid_distance2(graph, colors):
        raise InvalidColoringError("not a proper complete distance-2 coloring")


def _d2_first_fit(graph: CSRGraph, colors: np.ndarray, vertex: int) -> int:
    """Smallest color unused within two hops of ``vertex``."""
    forbidden: set[int] = set()
    for w in graph.neighbors(vertex):
        w = int(w)
        if colors[w] != UNCOLORED:
            forbidden.add(int(colors[w]))
        for x in graph.neighbors(w):
            x = int(x)
            if x != vertex and colors[x] != UNCOLORED:
                forbidden.add(int(colors[x]))
    c = 0
    while c in forbidden:
        c += 1
    return c


def greedy_distance2(graph: CSRGraph, *, order: np.ndarray | None = None) -> ColoringResult:
    """Sequential greedy distance-2 coloring (the quality reference)."""
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    seq = np.arange(n, dtype=np.int64) if order is None else np.asarray(order)
    for v in seq:
        colors[int(v)] = _d2_first_fit(graph, colors, int(v))
    return ColoringResult(
        algorithm="greedy-distance2",
        colors=colors,
        iterations=[IterationRecord(index=0, active_vertices=n, newly_colored=n)],
    )


def speculative_distance2(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    seed: int = 0,
    max_iterations: int | None = None,
) -> ColoringResult:
    """GPU-style speculate/resolve distance-2 coloring.

    Each round: every active vertex first-fit colors itself against its
    two-hop neighborhood snapshot (kernel 1), then all distance-≤2
    monochromatic conflicts uncolor their lower-priority member
    (kernel 2). The highest-priority vertex of any conflict always
    survives, so rounds strictly shrink.
    """
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    rng = np.random.default_rng(seed)
    priorities = rng.permutation(n)
    work = two_hop_work(graph)
    log = SweepLog(executor)
    cap = max_iterations if max_iterations is not None else n + 1

    active = np.arange(n, dtype=np.int64)
    k = 0
    while active.size:
        if k >= cap:
            break
        snapshot = colors.copy()
        for v in active:
            colors[int(v)] = _d2_first_fit(graph, snapshot, int(v))
        losers = _distance2_conflicts(graph, colors, priorities)
        # only active vertices can conflict (stable set was d2-proper and
        # actives avoided stable colors), but intersect for safety
        losers = np.intersect1d(losers, active)
        colors[losers] = UNCOLORED

        log.sweep(k, active.size, active.size - losers.size)
        log.vertices(f"d2_assign_it{k}", work, active)
        log.vertices(f"d2_detect_it{k}", work, active)
        active = losers
        k += 1

    iterations, total_cycles = log.finish()
    return ColoringResult(
        algorithm="speculative-distance2",
        colors=colors,
        iterations=iterations,
        total_cycles=total_cycles,
        device=executor.device if executor is not None else None,
    )
