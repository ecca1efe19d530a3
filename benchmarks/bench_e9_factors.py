"""E9 — important factors affecting performance.

Regenerates the factor-analysis figures: sensitivity of the coloring
time to (a) workgroup size, (b) work-stealing chunk size, (c) degree
sorting, and (d) machine width (CU count). Shape criteria: a chunk-size
sweet spot (too coarse → imbalance, too fine → fetch/steal overhead);
degree sorting raises SIMD efficiency but cannot beat the hub-bound
makespan (the paper's argument for why a *hybrid kernel* — not a better
layout — is needed); wider machines help skewed compute-bound sweeps
until the hub critical path binds, while low-degree mesh sweeps are
DRAM-bound and don't scale with width at all.
"""

import numpy as np

from repro.analysis import format_kv, format_series
from repro.engine.context import RunContext
from repro.gpusim.device import RADEON_HD_7950
from repro.harness.suite import build

from bench_common import SCALE, emit, record, timed_run

CHUNKS = (256, 512, 1024, 2048, 4096)
WORKGROUPS = (64, 128, 256)
CUS = (7, 14, 28, 56)


def test_e9_chunk_size(benchmark):
    def sweep():
        return [
            timed_run("rmat", schedule="stealing", chunk_size=c).time_ms
            for c in CHUNKS
        ]

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "E9-chunk",
        format_series(
            list(CHUNKS),
            {"stealing_time_ms": [round(t, 3) for t in times]},
            x_name="chunk_size",
            title=f"E9: chunk-size sensitivity, rmat ({SCALE} scale)",
        ),
    )
    # coarse chunks must hurt (imbalance at 4096 ≥ best × 1.1)
    shape = max(times) > 1.1 * min(times) and np.argmin(times) < len(CHUNKS) - 1
    record(
        "E9a",
        "Fig: chunk-size sensitivity of the stealing runtime",
        "fine chunks balance, coarse chunks recreate static imbalance",
        f"best {min(times):.2f} ms at {CHUNKS[int(np.argmin(times))]}, "
        f"worst {max(times):.2f} ms",
        shape,
    )
    assert shape


def test_e9_workgroup_size(benchmark):
    def sweep():
        return {
            g: [
                timed_run(g, workgroup_size=w, chunk_size=max(256, w)).time_ms
                for w in WORKGROUPS
            ]
            for g in ("rmat", "random")
        }

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "E9-workgroup",
        format_series(
            list(WORKGROUPS),
            {f"{g}_ms": [round(t, 3) for t in v] for g, v in times.items()},
            x_name="workgroup_size",
            title="E9: workgroup-size sensitivity (grid dispatch)",
        ),
    )
    # all configurations must complete; variation stays bounded
    for v in times.values():
        assert max(v) < 3 * min(v)


def test_e9_degree_sorting(benchmark):
    graph = build("rmat", SCALE)

    def probe():
        plain = RunContext().executor().time_iteration(graph.degrees)
        srt = RunContext().executor(sort_by_degree=True).time_iteration(graph.degrees)
        return plain, srt

    plain, srt = benchmark.pedantic(probe, rounds=1, iterations=1)
    summary = {
        "plain SIMD efficiency": round(plain.simd_efficiency, 3),
        "sorted SIMD efficiency": round(srt.simd_efficiency, 3),
        "plain sweep cycles": round(plain.cycles, 0),
        "sorted sweep cycles": round(srt.cycles, 0),
    }
    emit("E9-sorting", format_kv(summary, title="E9: degree sorting (rmat, one sweep)"))
    # sorting slashes total divergence…
    shape = srt.simd_efficiency > 2 * plain.simd_efficiency
    # …but the hub workgroup still bounds the makespan (≤ 5% change)
    shape = shape and abs(srt.cycles - plain.cycles) < 0.05 * plain.cycles
    record(
        "E9b",
        "Fig: effect of degree-sorted layout",
        "layout fixes aggregate divergence but not the hub critical path",
        f"SIMD eff {plain.simd_efficiency:.2f}→{srt.simd_efficiency:.2f}, "
        f"sweep cycles ~unchanged",
        shape,
    )
    assert shape


def test_e9_machine_width(benchmark):
    def sweep():
        out = {}
        for g in ("rmat", "grid3d"):
            graph = build(g, SCALE)
            times = []
            for cus in CUS:
                dev = RADEON_HD_7950.with_overrides(num_cus=cus)
                ex = RunContext(device=dev).executor()
                times.append(ex.time_iteration(graph.degrees).cycles)
            out[g] = times
        return out

    cycles = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "E9-width",
        format_series(
            list(CUS),
            {f"{g}_sweep_cycles": [round(t, 0) for t in v] for g, v in cycles.items()},
            x_name="num_cus",
            title="E9: machine-width scaling of one baseline sweep",
        ),
    )
    for g, v in cycles.items():
        assert all(a >= b * 0.999 for a, b in zip(v, v[1:])), g  # monotone
    # rmat: scales while compute-bound, then the hub critical path binds
    assert cycles["rmat"][0] > 1.3 * cycles["rmat"][1]  # 7→14 CUs helps
    assert cycles["rmat"][2] < 1.05 * cycles["rmat"][3]  # 28→56 saturated
    # grid3d: low-degree sweeps are DRAM-bound — width doesn't help at all
    assert cycles["grid3d"][0] < 1.05 * cycles["grid3d"][3]
