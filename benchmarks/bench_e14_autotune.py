"""E14 — putting it together: auto-tuned configuration per input.

The paper's conclusion is that the right technique depends on the
input's structure. E14 closes the loop: the autotuner probes each
input, picks a configuration, and the tuned full run is compared to the
fixed baseline. Shape criteria: the tuner picks the hybrid family on
the skewed class and the plain thread mapping on the uniform class, the
tuned run never loses materially to the baseline anywhere, and the
suite-wide tuned improvement matches the hand-picked best of E8.
"""

from repro.analysis import format_table
from repro.coloring.maxmin import maxmin_coloring
from repro.engine.context import RunContext
from repro.harness.autotune import autotune
from repro.harness.suite import SUITE, build
from repro.metrics import geometric_mean

from bench_common import DEVICE, SCALE, emit, record, timed_run


def test_e14_autotuned_vs_baseline(benchmark):
    def measure():
        rows = []
        for name, spec in SUITE.items():
            graph = build(name, SCALE)
            ctx = RunContext(device=DEVICE)
            cfg = autotune(graph, seed=0, context=ctx).best
            tuned = maxmin_coloring(graph, ctx.executor(cfg), seed=0)
            base = timed_run(name)
            rows.append(
                {
                    "graph": name,
                    "skewed": spec.skewed,
                    "picked": f"{cfg.mapping}/{cfg.schedule}",
                    "baseline_ms": round(base.time_ms, 3),
                    "tuned_ms": round(tuned.time_ms, 3),
                    "speedup": round(base.time_ms / tuned.time_ms, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "E14",
        format_table(rows, title=f"E14: autotuned configuration ({SCALE} scale)"),
    )
    picked_hybrid = all(
        r["picked"].startswith("hybrid") for r in rows if r["skewed"]
    )
    picked_thread = all(
        r["picked"].startswith("thread") for r in rows if not r["skewed"]
    )
    no_regression = all(r["speedup"] > 0.9 for r in rows)
    gm = geometric_mean([r["speedup"] for r in rows])
    shape = picked_hybrid and picked_thread and no_regression and gm > 1.1
    record(
        "E14",
        "Extension: per-input autotuning closes the technique-selection loop",
        "the right technique is input-dependent; tuning recovers E8's best",
        f"hybrid picked on all skewed: {picked_hybrid}; thread on all uniform: "
        f"{picked_thread}; tuned geomean speedup {gm:.2f}×",
        shape,
    )
    assert shape
