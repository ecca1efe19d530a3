"""Stealing-replay micro-benchmark — the work-stealing simulator as one layer.

Runs one jp coloring under the stealing schedule (``--dataset``,
``--scale``, ``--mapping``; seed 0, random priorities, chunk_size=256,
as perfbench's ``powerlaw-jp-wavefront`` workload runs it), captures
every :func:`~repro.loadbalance.workstealing.simulate_work_stealing`
call the executor makes, and replays each one ``--repeats`` times. It
prints the best replay time per chunk-count bucket, the best
``GPUExecutor.time_kernels`` wall of a whole run, and one digest per
run over every call's result: ``repr(makespan)``, the bytes of busy,
overhead and executed, and the attempts, hits and migrated counts (the
per-call digests ``tests/data/stealing_calls.json`` holds).

Usage::

    cd benchmarks && PYTHONPATH=../src python bench_stealing_replay.py \\
        --dataset powerlaw --scale standard --mapping wavefront

The standard-scale powerlaw output is committed as
``results/stealing-replay.txt``. Nothing is recorded in the run store.
"""

from __future__ import annotations

import argparse
import hashlib
import time

import numpy as np

import repro.coloring.kernels as kernels
from repro.engine.context import RunContext
from repro.harness.runner import run_gpu_coloring
from repro.harness.suite import build
from repro.loadbalance.workstealing import StealingResult

#: chunk-count buckets: one chunk each at most, then by their upper bound
BUCKETS = ("<= workers", "<= 1k", "<= 10k", "> 10k")


def call_digest(res: StealingResult) -> str:
    """The first 16 hex digits of one result's sha256."""
    h = hashlib.sha256(repr(res.makespan_cycles).encode())
    for arr in (res.busy_cycles, res.overhead_cycles, res.chunks_executed):
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    h.update(f"{res.steal_attempts},{res.steals_succeeded},{res.chunks_migrated}".encode())
    return h.hexdigest()[:16]


def _bucket(n: int, w: int) -> str:
    if n <= w:
        return BUCKETS[0]
    return BUCKETS[1] if n <= 1_000 else BUCKETS[2] if n <= 10_000 else BUCKETS[3]


def capture(dataset: str, scale: str, mapping: str, runs: int):
    """The stealing calls of one run, and the best ``time_kernels`` wall of ``runs``."""
    graph = build(dataset, scale)
    calls: list[tuple[np.ndarray, object]] = []
    real, walls = kernels.simulate_work_stealing, []

    def record(chunk_cycles, owner, config, **kwargs):
        calls.append((np.array(chunk_cycles), config))
        return real(chunk_cycles, owner, config, **kwargs)

    for i in range(runs):
        ctx = RunContext(seed=0)
        ex = ctx.executor(mapping=mapping, schedule="stealing", chunk_size=256)
        timed, spent = ex.time_kernels, [0.0]

        def time_kernels(logged, timed=timed, spent=spent):
            start = time.perf_counter()
            out = timed(logged)
            spent[0] += time.perf_counter() - start
            return out

        ex.time_kernels = time_kernels
        kernels.simulate_work_stealing = record if i == 0 else real
        try:
            run_gpu_coloring(graph, "jp", ex, seed=0, context=ctx, priority="random")
        finally:
            kernels.simulate_work_stealing = real
        walls.append(spent[0])
    return calls, min(walls)


def replay(calls, repeats: int) -> tuple[dict[str, list[float]], list[str]]:
    """Best-of-``repeats`` seconds per call, by bucket, and every call's digest."""
    per: dict[str, list[float]] = {name: [0, 0, 0.0] for name in BUCKETS}
    digests = []
    for costs, cfg in calls:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            res = kernels.simulate_work_stealing(costs, None, cfg)
            best = min(best, time.perf_counter() - start)
        row = per[_bucket(costs.size, cfg.num_workers)]
        row[0], row[1], row[2] = row[0] + 1, row[1] + costs.size, row[2] + best
        digests.append(call_digest(res))
    return per, digests


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--dataset", default="powerlaw")
    ap.add_argument("--scale", default="standard")
    ap.add_argument("--mapping", default="wavefront", choices=kernels.MAPPINGS)
    ap.add_argument("--repeats", type=int, default=5, help="replays per call (best kept)")
    args = ap.parse_args(argv)
    calls, wall = capture(args.dataset, args.scale, args.mapping, args.repeats)
    per, digests = replay(calls, args.repeats)
    total = sum(row[2] for row in per.values())
    run = hashlib.sha256("".join(digests).encode()).hexdigest()[:16]
    lines = [
        f"STEALING REPLAY: jp on {args.dataset} (scale={args.scale}, "
        f"mapping={args.mapping}, chunk_size=256, seed 0), best of {args.repeats}",
        f"  {'chunks':<12}{'calls':>7}{'chunks':>10}{'replay ms':>11}{'us/call':>10}",
    ]
    for name, (n, chunks, s) in per.items():
        us = s / n * 1e6 if n else 0.0
        lines.append(f"  {name:<12}{n:>7}{chunks:>10}{s * 1e3:>11.2f}{us:>10.1f}")
    lines += [
        f"  {'all':<12}{len(calls):>7}{sum(r[1] for r in per.values()):>10}"
        f"{total * 1e3:>11.2f}",
        f"  time_kernels wall per run: {wall * 1e3:.2f} ms",
        f"  digest of every call: {run}",
    ]
    print("\n".join(lines))


if __name__ == "__main__":
    main()
