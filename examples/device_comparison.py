#!/usr/bin/env python
"""Domain example: where does the GPU actually win? Device comparison.

Runs the same coloring workload across three machine shapes — the
paper's HD 7950, its bigger sibling (R9 290X), and an 8-core CPU-shaped
device — with each device's best configuration (autotuned). The point
the paper's introduction makes implicitly: wide SIMT machines only pay
off when the input offers enough *well-shaped* parallelism.

Run:  python examples/device_comparison.py
"""

from repro.analysis import format_table
from repro.coloring.maxmin import maxmin_coloring
from repro.engine.context import RunContext
from repro.gpusim.device import CPU_8CORE, RADEON_HD_7950, RADEON_R9_290X
from repro.harness.autotune import autotune
from repro.harness.suite import build

DEVICES = {
    "HD 7950 (28 CU GPU)": RADEON_HD_7950,
    "R9 290X (44 CU GPU)": RADEON_R9_290X,
    "8-core CPU shape": CPU_8CORE,
}


def tuned_time_ms(graph, device) -> tuple[float, str]:
    ctx = RunContext(device=device)
    cfg = autotune(graph, seed=0, context=ctx).best
    result = maxmin_coloring(graph, ctx.executor(cfg), seed=0)
    return result.time_ms, f"{cfg.mapping}/{cfg.schedule}"


def main() -> None:
    rows = []
    for name in ("rmat", "powerlaw", "road", "random"):
        graph = build(name, "standard")
        row: dict[str, object] = {"graph": name, "|V|": graph.num_vertices}
        times = {}
        for label, device in DEVICES.items():
            t, picked = tuned_time_ms(graph, device)
            times[label] = t
            row[label + " ms"] = round(t, 3)
        row["GPU/CPU speedup"] = round(
            times["8-core CPU shape"] / times["HD 7950 (28 CU GPU)"], 2
        )
        rows.append(row)
    print(format_table(rows, title="autotuned max-min coloring across devices"))
    print(
        "\nThe GPU's advantage tracks available parallelism: big active "
        "sets amortize its width;\nthe CPU shape's cheap launches and "
        "fast irregular access keep it close on launch-bound meshes."
    )


if __name__ == "__main__":
    main()
