#!/usr/bin/env python
"""Domain example: diagnosing load imbalance on a social network.

Walks through the paper's analysis pipeline on a power-law graph:

1. quantify the degree skew (the root cause),
2. run the baseline kernel and read the divergence/occupancy counters,
3. inspect the per-CU busy profile under static persistent mapping,
4. apply work stealing and the hybrid mapping and watch the profile
   flatten.

Run:  python examples/social_network_imbalance.py
"""

import numpy as np

from repro import RunContext, barabasi_albert, maxmin_coloring, summarize
from repro.analysis import format_kv, format_series, format_table
from repro.metrics import idle_fraction, imbalance_factor


def busy_profile(cu_busy: np.ndarray, buckets: int = 7) -> str:
    """A tiny text histogram of per-CU busy cycles."""
    peak = cu_busy.max()
    if peak == 0:
        return "(idle)"
    bars = (cu_busy / peak * buckets).astype(int)
    return " ".join("▁▂▃▄▅▆▇█"[min(b, 7)] for b in bars)


def main() -> None:
    graph = barabasi_albert(30_000, attach=8, seed=11)
    print(format_kv(summarize(graph, "social-30k").as_row(), title="input"))
    print()

    # --- step 1: the baseline and its counters -----------------------
    ctx = RunContext()  # the paper's HD 7950
    base = maxmin_coloring(graph, ctx.executor(), seed=0).validate(graph)
    first = base.iterations[0]
    print(
        format_kv(
            {
                "iterations": base.num_iterations,
                "colors": base.num_colors,
                "time_ms": round(base.time_ms, 3),
                "iter0 SIMD efficiency": round(first.simd_efficiency, 3),
            },
            title="baseline (thread-per-vertex, grid dispatch)",
        )
    )
    print()

    # --- step 2: where the time goes under static mapping ------------
    static_ex = ctx.executor(schedule="static")
    t_static = static_ex.time_iteration(graph.degrees, name="probe")
    steal_ex = ctx.executor(schedule="stealing")
    t_steal = steal_ex.time_iteration(graph.degrees, name="probe")

    print("per-CU busy profile of one full sweep (28 CUs):")
    print(f"  static slabs : {busy_profile(t_static.cu_busy)}")
    print(f"  work stealing: {busy_profile(t_steal.cu_busy)}")
    rows = [
        {
            "schedule": "static slabs",
            "imbalance(max/mean)": round(imbalance_factor(t_static.cu_busy), 2),
            "idle_fraction": round(idle_fraction(t_static.cu_busy), 3),
            "sweep_cycles": round(t_static.cycles, 0),
        },
        {
            "schedule": "work stealing",
            "imbalance(max/mean)": round(imbalance_factor(t_steal.cu_busy), 2),
            "idle_fraction": round(idle_fraction(t_steal.cu_busy), 3),
            "sweep_cycles": round(t_steal.cycles, 0),
            "steals": t_steal.stealing.steals_succeeded,
        },
    ]
    print()
    print(format_table(rows, title="one-sweep schedule comparison"))
    print()

    # --- step 3: full-run comparison including the hybrid mapping ----
    variants = {
        "baseline": ctx.executor(),
        "stealing": ctx.executor(schedule="stealing"),
        "hybrid": ctx.executor(mapping="hybrid"),
        "hybrid+stealing": ctx.executor(mapping="hybrid", schedule="stealing"),
    }
    times = {k: maxmin_coloring(graph, ex, seed=0).time_ms for k, ex in variants.items()}
    print(
        format_series(
            list(times.keys()),
            {
                "time_ms": [round(v, 3) for v in times.values()],
                "speedup": [round(times["baseline"] / v, 2) for v in times.values()],
            },
            x_name="configuration",
            title="full coloring run",
        )
    )


if __name__ == "__main__":
    main()
