"""Static-analyzer validation — predicted vs measured load imbalance.

Cross-validates :mod:`repro.check.flow.imbalance` against the
simulator across the generator zoo: for every graph, the static
predictor (work polynomials + replayed static-persistent chunking)
is compared with the dynamically measured per-CU imbalance of a
static-schedule sweep. Shape criterion: Spearman rank correlation
≥ 0.8 for every degree-dependent algorithm — the ISSUE acceptance
bar — plus a wall-time budget showing the analyzer is cheap enough
to run on every CI push.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.check.flow import analyze_algorithm, predict_imbalance, spearman
from repro.engine.context import RunContext
from repro.harness.suite import SUITE, build
from repro.metrics import imbalance_factor

from bench_common import DEVICE, SCALE, emit, record

#: algorithms whose kernels loop over vertex degree (rank-ordering the
#: zoo is meaningful); edge-centric is constant-work by construction,
#: so its prediction is a balance *feature*, not a ranking.
DEGREE_DEPENDENT = ("maxmin", "jp", "speculative")


def _collect():
    static_ex = RunContext(device=DEVICE).executor(schedule="static")
    rows = []
    t0 = time.perf_counter()
    for name, spec in SUITE.items():
        graph = build(name, SCALE)
        deg = graph.degrees
        t_static = static_ex.time_iteration(deg, name="sweep")
        row = {
            "graph": name,
            "skewed": spec.skewed,
            "measured": round(imbalance_factor(t_static.cu_busy), 3),
        }
        for algo in DEGREE_DEPENDENT:
            row[f"pred_{algo}"] = round(
                predict_imbalance(algo, deg).imbalance_factor, 3
            )
        row["pred_ec"] = round(
            predict_imbalance("edge-centric", deg).imbalance_factor, 3
        )
        rows.append(row)
    elapsed = time.perf_counter() - t0

    # analyzer wall-time alone: classify all six algorithms' kernels
    t1 = time.perf_counter()
    for algo in ("maxmin", "jp", "speculative", "hybrid-switch",
                 "edge-centric", "partitioned"):
        analyze_algorithm(algo)
    analyze_s = time.perf_counter() - t1
    return rows, elapsed, analyze_s


def test_flow_static_prediction(benchmark):
    rows, elapsed, analyze_s = benchmark.pedantic(
        _collect, rounds=1, iterations=1
    )
    emit(
        "FLOW",
        format_table(
            rows,
            title=f"FLOW: static vs measured imbalance ({SCALE} scale, "
            f"collect {elapsed:.1f}s, analyze-only {analyze_s * 1000:.0f}ms)",
        ),
    )

    measured = np.array([r["measured"] for r in rows])
    rhos = {
        algo: spearman(
            np.array([r[f"pred_{algo}"] for r in rows]), measured
        )
        for algo in DEGREE_DEPENDENT
    }
    # edge-centric predicts near-balance everywhere the vertex kernels
    # predict skew — the paper's trade, visible statically
    skew_preds = [r["pred_maxmin"] for r in rows if r["skewed"]]
    ec_flat = max(r["pred_ec"] for r in rows) <= min(skew_preds)

    shape = all(rho >= 0.8 for rho in rhos.values()) and ec_flat
    record(
        "FLOW",
        "Static load-imbalance predictor vs simulator measurement",
        "per-thread work polynomials rank-order the zoo's imbalance "
        "before any simulation",
        "Spearman: "
        + ", ".join(f"{a} {rho:.3f}" for a, rho in sorted(rhos.items()))
        + f"; analyzer wall-time {analyze_s * 1000:.0f}ms for six algorithms",
        shape,
    )
    assert shape, rhos
