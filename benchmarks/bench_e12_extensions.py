"""E12 — extension experiments (beyond the paper's evaluation).

Design-choice and future-work ablations DESIGN.md calls out, measured
with the same harness:

* **donation vs. stealing** — sender- vs. receiver-initiated balancing
  under identical chunk costs;
* **priority functions** — degree-major priorities drain hubs from the
  active set early (a performance lever the baseline leaves on the
  table);
* **color-reduction post-pass** — how much of max-min's color debt
  iterated greedy claws back, and what it costs;
* **layout (reorder) effects** — RCM/BFS/random relabelings vs. the
  baseline sweep time.
"""

import numpy as np

from repro.analysis import format_table
from repro.coloring.maxmin import maxmin_coloring
from repro.coloring.recolor import recolor_greedy
from repro.engine.context import RunContext
from repro.graphs import reorder as ro
from repro.harness.suite import build
from repro.loadbalance.donation import DonationConfig, simulate_work_donation
from repro.loadbalance.workstealing import (
    StealingConfig,
    simulate_static_persistent,
    simulate_work_stealing,
)

from bench_common import DEVICE, SCALE, emit, record, timed_run


def test_e12_donation_vs_stealing(benchmark):
    """Same chunk distribution through all three persistent runtimes."""
    graph = build("rmat", SCALE)
    ex = RunContext(device=DEVICE).executor()
    lane = ex.costs.thread_vertex_cycles(graph.degrees)
    from repro.gpusim.wavefront import wavefront_costs
    from repro.loadbalance.partition import chunk_costs, chunk_ranges

    rounds = wavefront_costs(lane, 256)
    chunks = chunk_costs(rounds, chunk_ranges(rounds.size, 1))
    owner = np.arange(chunks.size) // max(1, -(-chunks.size // 28))

    def measure():
        static = simulate_static_persistent(chunks, owner, 28)
        steal = simulate_work_stealing(
            chunks, owner, StealingConfig(num_workers=28, seed=0)
        )
        donate = simulate_work_donation(
            chunks, owner, DonationConfig(num_workers=28)
        )
        return [
            {"runtime": "static", **static.as_row()},
            {"runtime": "stealing", **steal.as_row()},
            {"runtime": "donation", **donate.as_row()},
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("E12-donation", format_table(rows, title="E12: persistent runtimes, one rmat sweep"))
    makespans = {r["runtime"]: r["makespan"] for r in rows}
    shape = (
        makespans["stealing"] < makespans["static"]
        and makespans["donation"] < makespans["static"]
        and 0.5 < makespans["donation"] / makespans["stealing"] < 2.0
    )
    record(
        "E12a",
        "Extension: work donation vs work stealing",
        "sender- and receiver-initiated balancing recover similar imbalance",
        f"makespans: static {makespans['static']:.0f}, stealing "
        f"{makespans['stealing']:.0f}, donation {makespans['donation']:.0f}",
        shape,
    )
    assert shape


def test_e12_priority_functions(benchmark):
    def measure():
        rows = []
        for name in ("rmat", "powerlaw"):
            for prio in ("random", "degree"):
                r = timed_run(name, "maxmin", algo_kwargs={"priority": prio})
                rows.append(
                    {
                        "graph": name,
                        "priority": prio,
                        "time_ms": round(r.time_ms, 3),
                        "iterations": r.num_iterations,
                        "colors": r.num_colors,
                    }
                )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("E12-priority", format_table(rows, title="E12: priority functions (maxmin)"))
    by = {(r["graph"], r["priority"]): r for r in rows}
    # degree priority colors hubs in round 0 → hub divergence leaves the
    # run early → faster on the heavy-tailed input
    shape = by[("rmat", "degree")]["time_ms"] < by[("rmat", "random")]["time_ms"]
    record(
        "E12b",
        "Extension: priority-function choice",
        "degree-major priorities drain hubs early and cut sweep time on skew",
        f"rmat maxmin: random {by[('rmat','random')]['time_ms']} ms vs "
        f"degree {by[('rmat','degree')]['time_ms']} ms",
        shape,
    )
    assert shape


def test_e12_color_reduction(benchmark):
    graph = build("rmat", SCALE)

    def measure():
        base = maxmin_coloring(graph, seed=0)
        reduced = recolor_greedy(graph, base.colors, passes=3)
        reduced.validate(graph)
        return base, reduced

    base, reduced = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        {"stage": "maxmin raw", "colors": base.num_colors},
        {"stage": "after iterated greedy (3 passes)", "colors": reduced.num_colors},
    ]
    emit("E12-recolor", format_table(rows, title="E12: color-reduction post-pass (rmat)"))
    shape = reduced.num_colors < 0.6 * base.num_colors
    record(
        "E12c",
        "Extension: iterated-greedy color reduction",
        "post-pass recovers most of max-min's color debt",
        f"rmat: {base.num_colors} → {reduced.num_colors} colors",
        shape,
    )
    assert shape


def test_e12_layout_effects(benchmark):
    graph = build("road", SCALE)

    def measure():
        rows = []
        layouts = {
            "natural": graph,
            "random": graph.permute(ro.random_order(graph, seed=1)),
            "bfs": graph.permute(ro.bfs_order(graph)),
            "rcm": graph.permute(ro.rcm_order(graph)),
        }
        ex = RunContext(device=DEVICE).executor()
        for label, g in layouts.items():
            t = ex.time_iteration(g.degrees, name=label)
            rows.append(
                {
                    "layout": label,
                    "bandwidth": ro.bandwidth(g),
                    "sweep_cycles": round(t.cycles, 0),
                    "simd_eff": round(t.simd_efficiency, 3),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("E12-layout", format_table(rows, title="E12: layout effects (road, one sweep)"))
    by = {r["layout"]: r for r in rows}
    # RCM shrinks bandwidth dramatically; sweep time is degree-driven so
    # it stays flat — locality helps caches (not modelled per-line), not
    # lockstep divergence. The honest negative result.
    shape = by["rcm"]["bandwidth"] < 0.2 * by["random"]["bandwidth"]
    record(
        "E12d",
        "Extension: graph-layout (RCM/BFS) effects",
        "layout controls bandwidth/locality, not lockstep divergence",
        f"bandwidth random {by['random']['bandwidth']} → rcm {by['rcm']['bandwidth']}; "
        f"sweep cycles within {max(r['sweep_cycles'] for r in rows) / min(r['sweep_cycles'] for r in rows):.2f}×",
        shape,
    )
    assert shape
