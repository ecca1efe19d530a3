"""Full-run report generation.

Combines a coloring result, the executor's counters, and the graph's
structure into one human-readable block — the "what happened and why"
view the CLI's ``report`` command prints and the imbalance example
builds by hand.
"""

from __future__ import annotations

import numpy as np

from ..coloring.base import ColoringResult
from ..coloring.kernels import GPUExecutor
from ..engine.context import RunContext
from ..graphs.csr import CSRGraph
from ..graphs.stats import summarize
from ..metrics import idle_fraction, imbalance_factor
from .tables import format_kv, format_table

__all__ = ["run_report", "render_busy_bars"]


def render_busy_bars(loads: np.ndarray, *, width: int = 50, label: str = "w") -> str:
    """Render per-worker loads as horizontal bars (normalized to max)."""
    x = np.asarray(loads, dtype=np.float64).ravel()
    if x.size == 0:
        return "(no workers)"
    if np.any(x < 0):
        raise ValueError("loads must be non-negative")
    peak = x.max()
    lines = []
    for i, v in enumerate(x):
        n = int(round(width * v / peak)) if peak > 0 else 0
        lines.append(f"{label}{i:<3d} {'█' * n}{' ' * (width - n)} {v:,.0f}")
    return "\n".join(lines)


def run_report(
    graph: CSRGraph,
    result: ColoringResult,
    executor: GPUExecutor | None = None,
    *,
    graph_name: str = "graph",
    max_iteration_rows: int = 12,
) -> str:
    """Render a complete run report as text."""
    blocks: list[str] = []
    blocks.append(format_kv(summarize(graph, graph_name).as_row(), title="input"))
    blocks.append(format_kv(result.as_row(), title=f"result: {result.algorithm}"))

    if result.iterations:
        rows = []
        iters = result.iterations
        shown = iters[:max_iteration_rows]
        for it in shown:
            rows.append(
                {
                    "iter": it.index,
                    "active": it.active_vertices,
                    "colored": it.newly_colored,
                    "cycles": round(it.cycles, 1),
                    "simd_eff": round(it.simd_efficiency, 3)
                    if it.simd_efficiency is not None
                    else None,
                }
            )
        title = "iterations"
        if len(iters) > max_iteration_rows:
            title += f" (first {max_iteration_rows} of {len(iters)})"
        blocks.append(format_table(rows, title=title))

    if executor is not None:
        c = executor.counters
        row = c.as_row()
        row["achieved_GB/s"] = round(
            c.achieved_bandwidth_gbps(executor.device), 1
        )
        blocks.append(format_kv(row, title="execution counters"))

        # probe one full sweep for the per-CU load profile on a private
        # context, so the report perturbs neither the run's counters nor
        # its trace
        probe_ctx = RunContext(device=executor.device, memory=executor.memory)
        probe = probe_ctx.executor(executor.config).time_iteration(
            graph.degrees, name="report-probe"
        )
        if probe.cu_busy is not None:
            blocks.append(
                format_kv(
                    {
                        "CU imbalance (max/mean)": round(
                            imbalance_factor(probe.cu_busy), 3
                        ),
                        "CU idle fraction": round(idle_fraction(probe.cu_busy), 3),
                    },
                    title="full-sweep load profile",
                )
            )
            blocks.append(render_busy_bars(probe.cu_busy, width=40, label="cu"))
    return "\n\n".join(blocks)
