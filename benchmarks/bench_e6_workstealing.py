"""E6 — work-stealing effectiveness.

Regenerates the work-stealing figure: speedup of the stealing runtime
over the static persistent baseline, per graph, plus the steal-traffic
counters and a victim-policy comparison. Shape criterion: stealing
recovers (most of) the static imbalance on skewed graphs and costs ~
nothing on uniform graphs — speedup ≥ on the skewed class, ≈ 1 on the
uniform class, never a serious regression.
"""

from repro.analysis import format_table
from repro.harness.suite import SUITE
from repro.metrics import geometric_mean

from bench_common import SCALE, emit, record, timed_run


def _table():
    rows = []
    for name, spec in SUITE.items():
        static = timed_run(name, schedule="static")
        steal = timed_run(name, schedule="stealing")
        dyn = timed_run(name, schedule="dynamic")
        rows.append(
            {
                "graph": name,
                "skewed": spec.skewed,
                "static_ms": round(static.time_ms, 3),
                "steal_ms": round(steal.time_ms, 3),
                "dynamic_ms": round(dyn.time_ms, 3),
                "speedup_vs_static": round(static.time_ms / steal.time_ms, 2),
            }
        )
    return rows


def test_e6_work_stealing(benchmark):
    rows = benchmark.pedantic(_table, rounds=1, iterations=1)
    emit(
        "E6",
        format_table(
            rows, title=f"E6: work stealing vs static persistent ({SCALE} scale)"
        ),
    )

    skewed = [r["speedup_vs_static"] for r in rows if r["skewed"]]
    uniform = [r["speedup_vs_static"] for r in rows if not r["skewed"]]
    gm_skewed = geometric_mean(skewed)
    gm_uniform = geometric_mean(uniform)
    shape = gm_skewed > 1.05 and gm_skewed > gm_uniform and min(uniform) > 0.9
    record(
        "E6",
        "Fig: work-stealing speedup over the static persistent mapping",
        "stealing fixes inter-workgroup imbalance where degree skew creates it",
        f"speedup geomean: skewed {gm_skewed:.2f}×, uniform {gm_uniform:.2f}×",
        shape,
    )
    assert shape


def test_e6_steal_policies(benchmark):
    """Victim policy and steal traffic on the worst-imbalance input."""
    from repro.coloring.maxmin import maxmin_coloring
    from repro.engine.context import RunContext
    from repro.harness.suite import build
    from repro.loadbalance.workstealing import StealingConfig

    graph = build("rmat", SCALE)

    def run(policy):
        cfg = StealingConfig(
            num_workers=28, steal_policy=policy, steal_cycles=400.0, seed=0
        )
        ex = RunContext().executor(schedule="stealing", stealing=cfg)
        return maxmin_coloring(graph, ex, seed=0, max_iterations=6, compact=False)

    random_r = benchmark.pedantic(lambda: run("random"), rounds=1, iterations=1)
    richest_r = run("richest")
    rows = [
        {"policy": "random", "cycles_first6": round(random_r.total_cycles, 0)},
        {"policy": "richest", "cycles_first6": round(richest_r.total_cycles, 0)},
    ]
    emit("E6-policies", format_table(rows, title="E6: victim policy (rmat, first 6 sweeps)"))
    # both policies must finish the same work and stay within 25%
    ratio = random_r.total_cycles / richest_r.total_cycles
    assert 0.75 < ratio < 1.35
