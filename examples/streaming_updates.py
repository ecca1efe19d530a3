#!/usr/bin/env python
"""Domain example: keeping a coloring alive under streaming edge updates.

A realistic deployment colors a graph once on the GPU, then the graph
keeps growing (new follows in a social graph, new interferences as code
is edited). Re-running the bulk colorer per edge is absurd; repairing
incrementally degrades color quality over time. This example runs that
full lifecycle:

1. bulk-color a social graph with the optimized GPU configuration,
2. stream in edges with incremental repair, tracking repair work and
   color growth,
3. decide when to re-run the bulk colorer, and compare the end states.

Run:  python examples/streaming_updates.py
"""

import numpy as np

from repro.analysis import format_table
from repro.coloring.incremental import IncrementalColoring
from repro.coloring.maxmin import maxmin_coloring
from repro.coloring.recolor import recolor_greedy
from repro.engine.context import RunContext
from repro.graphs.generators import barabasi_albert


def preferential_edge_stream(graph, count: int, seed: int):
    """New edges arriving with preferential attachment (rich get richer)."""
    rng = np.random.default_rng(seed)
    deg = graph.degrees.astype(np.float64)
    prob = deg / deg.sum()
    n = graph.num_vertices
    for _ in range(count):
        u = int(rng.choice(n, p=prob))
        v = int(rng.integers(0, n))
        if u != v:
            yield u, v


def main() -> None:
    graph = barabasi_albert(20_000, attach=6, seed=5)
    executor = RunContext().executor(mapping="hybrid", schedule="stealing")

    # 1. bulk GPU coloring + quality post-pass
    bulk = maxmin_coloring(graph, executor, seed=0)
    tuned = recolor_greedy(graph, bulk.colors, passes=2)
    tuned.validate(graph)
    print(
        f"bulk coloring: {bulk.num_colors} colors in {bulk.time_ms:.2f} ms "
        f"(simulated), reduced to {tuned.num_colors} by the post-pass\n"
    )

    # 2. stream updates with incremental repair
    inc = IncrementalColoring(graph, tuned.colors)
    checkpoints = [1000, 5000, 10_000, 20_000]
    stream = preferential_edge_stream(graph, checkpoints[-1], seed=9)
    rows = []
    done = 0
    for target in checkpoints:
        for u, v in stream:
            inc.add_edge(u, v)
            done += 1
            if done >= target:
                break
        rows.append(
            {
                "edges_streamed": target,
                "repairs": inc.recolorings,
                "repair_rate_%": round(100 * inc.recolorings / max(inc.edges_added, 1), 2),
                "colors_now": inc.num_colors,
            }
        )
    print(format_table(rows, title="incremental maintenance under the update stream"))
    assert inc.is_valid()

    # 3. when quality drifts, re-run the bulk colorer on the grown graph
    grown = inc.to_graph()
    refreshed = maxmin_coloring(grown, executor, seed=1)
    refreshed.validate(grown)
    repolished = recolor_greedy(grown, refreshed.colors, passes=2)
    print()
    print(
        format_table(
            [
                {"state": "incremental after stream", "colors": inc.num_colors},
                {"state": "fresh GPU re-color", "colors": refreshed.num_colors},
                {"state": "fresh + post-pass", "colors": repolished.num_colors},
            ],
            title="re-color decision",
        )
    )
    print(
        "\nIncremental repair keeps the coloring valid for ~free; a periodic "
        "bulk re-color\nreclaims the color drift. The crossover is the repair "
        "rate you are willing to pay."
    )


if __name__ == "__main__":
    main()
