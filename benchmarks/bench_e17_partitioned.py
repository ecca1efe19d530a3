"""E17 — partitioned (multi-device) coloring scaling.

The multi-device extension: interiors color concurrently on P devices,
the boundary resolves centrally. Shape criteria (the known distributed
coloring results): on meshes the boundary fraction stays small and the
total time improves up to a sweet spot before Amdahl's boundary term
takes over; on power-law graphs the boundary explodes with P and the
approach stops paying — "power-law graphs don't partition".
"""

from repro.analysis import format_table
from repro.coloring.partitioned import partitioned_coloring
from repro.engine.context import RunContext
from repro.harness.suite import build

from bench_common import DEVICE, SCALE, emit, record

PARTITIONS = (1, 2, 4, 8)


def test_e17_partitioned_scaling(benchmark):
    def measure():
        rows = []
        for name in ("road", "grid3d", "rmat"):
            graph = build(name, SCALE)
            for p in PARTITIONS:
                r = partitioned_coloring(
                    graph, RunContext(device=DEVICE).executor(), num_partitions=p, seed=0
                )
                r.validate(graph)
                rows.append(
                    {
                        "graph": name,
                        "P": p,
                        "boundary_%": round(100 * r.extras["boundary_fraction"], 1),
                        "phase1": round(r.extras["phase1_cycles"], 0),
                        "phase2": round(r.extras["phase2_cycles"], 0),
                        "total": round(r.total_cycles, 0),
                        "colors": r.num_colors,
                    }
                )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "E17",
        format_table(
            rows, title=f"E17: partitioned multi-device coloring ({SCALE} scale)"
        ),
    )
    by = {(r["graph"], r["P"]): r for r in rows}

    # meshes: small boundaries, phase 1 scales down, some P beats P=1
    mesh_ok = all(
        by[(g, 2)]["boundary_%"] < 10
        and by[(g, 8)]["phase1"] < by[(g, 1)]["phase1"]
        and min(by[(g, p)]["total"] for p in PARTITIONS[1:]) < by[(g, 1)]["total"]
        for g in ("road", "grid3d")
    )
    # power law: boundary explodes, killing the scaling
    rmat_boundary_explodes = by[("rmat", 8)]["boundary_%"] > 50
    rmat_no_great_win = (
        min(by[("rmat", p)]["total"] for p in PARTITIONS) > 0.5 * by[("rmat", 1)]["total"]
    )
    shape = mesh_ok and rmat_boundary_explodes and rmat_no_great_win
    record(
        "E17",
        "Extension: partitioned multi-device coloring",
        "meshes partition (small boundaries, interior scaling); power-law doesn't",
        f"boundary at P=8: road {by[('road', 8)]['boundary_%']}%, grid3d "
        f"{by[('grid3d', 8)]['boundary_%']}%, rmat {by[('rmat', 8)]['boundary_%']}%",
        shape,
    )
    assert shape
