"""Observability micro-benchmark — tracing cost, on vs. off.

The observability layer's two contracts, measured:

* **determinism** — a traced run reports bit-identical simulated cycles
  (and the same coloring) as an untraced run: the tracer only observes,
  it never touches the RNG or the event queue;
* **cheapness** — with tracing off the instrumentation is one
  ``context.tracer is None`` test per site, and with tracing on the
  ring-buffer emission stays under 5% wall-clock overhead.

Shape criterion: identical cycles and < 5% overhead (best of
``REPEATS`` sweeps, which irons out host jitter).
"""

import time

from repro.engine.context import RunContext
from repro.harness.runner import run_gpu_coloring
from repro.harness.suite import build

from bench_common import DEVICE, SCALE, emit, record

DATASET = "rmat"
ALGORITHM = "maxmin"
REPEATS = 5


def _run(traced):
    ctx = RunContext(device=DEVICE)
    ring = ctx.enable_tracing() if traced else None
    executor = ctx.executor(mapping="thread", schedule="stealing")
    graph = build(DATASET, SCALE)
    run_gpu_coloring(graph, ALGORITHM, executor, seed=0, context=ctx)  # warm-up run
    times = []
    result = None
    for _ in range(REPEATS):
        if ring is not None:
            ring.clear()
        start = time.perf_counter()
        result = run_gpu_coloring(graph, ALGORITHM, executor, seed=0, context=ctx)
        times.append(time.perf_counter() - start)
    events = ring.emitted if ring is not None else 0
    return min(times), result, events


def test_obs_overhead():
    off_s, off_result, _ = _run(traced=False)
    on_s, on_result, events = _run(traced=True)
    overhead = (on_s - off_s) / off_s if off_s > 0 else 0.0
    identical = (
        off_result.total_cycles == on_result.total_cycles
        and off_result.num_colors == on_result.num_colors
    )
    lines = [
        "OBS: tracing overhead, traced vs untraced coloring "
        f"({ALGORITHM} on {DATASET}, scale={SCALE}, stealing schedule, "
        f"best of {REPEATS})",
        f"  tracing off: {off_s * 1e3:9.2f} ms",
        f"  tracing on : {on_s * 1e3:9.2f} ms  ({events} events/run)",
        f"  overhead   : {overhead * 100:9.2f} %",
        f"  simulated cycles identical: {identical}",
    ]
    emit("obs-overhead", "\n".join(lines))

    shape = identical and overhead < 0.05
    record(
        "OBS-OVERHEAD",
        "observability microbenchmark (no paper artifact)",
        "tracing observes the simulation without perturbing it, at <5% host cost",
        f"off={off_s * 1e3:.2f}ms on={on_s * 1e3:.2f}ms "
        f"({overhead * 100:.2f}% overhead), cycles identical: {identical}",
        shape,
    )
    assert shape


if __name__ == "__main__":
    test_obs_overhead()
