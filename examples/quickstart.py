#!/usr/bin/env python
"""Quickstart: color a degree-skewed graph on the simulated GPU.

Generates an R-MAT graph (the canonical load-imbalance stress case),
colors it with the paper's baseline max-min kernel, validates the
result, and then applies the paper's two optimization techniques —
the hybrid mapping and work stealing — to show the improvement.

Run:  python examples/quickstart.py
"""

from repro import (
    RADEON_HD_7950,
    RunContext,
    maxmin_coloring,
    percent_improvement,
    rmat,
    summarize,
)
from repro.analysis import format_kv, format_table


def main() -> None:
    # 1. A Graph500-style R-MAT graph: heavy-tailed degrees, the worst
    #    case for one-thread-per-vertex SIMT kernels.
    graph = rmat(13, edge_factor=16, seed=7)
    print(format_kv(summarize(graph, "rmat-13").as_row(), title="input graph"))
    print()

    # 2. Baseline: thread-per-vertex kernel, ordinary grid dispatch, on
    #    the paper's AMD Radeon HD 7950 machine model.
    ctx = RunContext(device=RADEON_HD_7950)
    baseline = maxmin_coloring(graph, ctx.executor(), seed=0)
    baseline.validate(graph)  # the coloring is real — check it

    # 3. The paper's techniques, separately and together.
    hybrid = maxmin_coloring(graph, ctx.executor(mapping="hybrid"), seed=0)
    stealing = maxmin_coloring(graph, ctx.executor(schedule="stealing"), seed=0)
    both = maxmin_coloring(
        graph, ctx.executor(mapping="hybrid", schedule="stealing"), seed=0
    )

    rows = []
    for label, r in [
        ("baseline (thread/grid)", baseline),
        ("hybrid mapping", hybrid),
        ("work stealing", stealing),
        ("hybrid + stealing", both),
    ]:
        rows.append(
            {
                "configuration": label,
                "colors": r.num_colors,
                "iterations": r.num_iterations,
                "time_ms": round(r.time_ms, 3),
                "improvement_%": round(
                    percent_improvement(baseline.time_ms, r.time_ms), 1
                ),
            }
        )
    print(format_table(rows, title="max-min coloring on the simulated HD 7950"))
    print()
    print(
        "The hybrid mapping attacks intra-wavefront divergence (one hub "
        "vertex stalling 63 lanes);\nwork stealing attacks inter-workgroup "
        "imbalance. Both matter only because the degrees are skewed."
    )


if __name__ == "__main__":
    main()
