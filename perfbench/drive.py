"""The measurement loops: set-up, closed-loop operations, checks.

Each loop returns an :class:`Outcome`. Every timed span (a set-up, an
operation) is reported in reference seconds (see :mod:`speed`).
End-to-end figures come from operations run with no wrapper installed;
in a traced run, traced and untraced operations alternate, so the
overhead of tracing is measured under the same conditions as the
figures it is compared with.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layers import Probe, TimedBackend
from speed import Speed
from workloads import EXACT_COUNTS, LAYERS, PER_LAYER, POLL_S, SETUP_REPS, SUBSEEDS, Workload

UNITS = {m["name"]: m["unit"] for m in PER_LAYER}

#: a served job must finish within this many seconds
JOB_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    broken: list[str] = field(default_factory=list)  # failed self-checks
    identity: str = ""
    identity_note: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)  # self seconds per unit

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class TracedOp:
    """Wall time and probe readings of one traced operation, in reference seconds."""

    wall: float
    self_s: dict
    incl_s: dict
    counts: dict
    submit_s: float = 0.0

    @classmethod
    def from_probe(cls, probe: Probe, wall: float, factor: float) -> "TracedOp":
        self_s, incl_s, counts = probe.take()
        return cls(
            wall * factor,
            {k: v * factor for k, v in self_s.items()},
            {k: v * factor for k, v in incl_s.items()},
            counts,
        )


def _median(values) -> float:
    return float(statistics.median(values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_identity(out: Outcome, w: Workload, seed: int, digest: str) -> None:
    expected = w.identities.get(seed)
    out.identity = digest
    if expected is not None and digest != expected:
        out.fail(f"identity {digest} differs from the recorded seed-{seed} {expected}")


def coloring_digest(result) -> str:
    """Identity of a coloring: its colors, sweeps and simulated cycles."""
    h = hashlib.sha256(result.colors.astype("<i8").tobytes())
    h.update(f"|{result.num_iterations}|{result.total_cycles!r}".encode())
    return h.hexdigest()[:16]


def rows_digest(rows: list) -> str:
    """Identity of served job rows (canonical JSON)."""
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _cold_build(names, scale: str) -> float:
    """Wall seconds to build ``names`` with the process cache emptied first."""
    from repro.harness import suite

    suite._CACHE.clear()  # the only way to make suite.build cold again
    t0 = perf_counter()
    for name in names:
        suite.build(name, scale)
    return perf_counter() - t0


def _execution_config(mapping: str, schedule: str, fields: dict):
    from repro.coloring.kernels import ExecutionConfig

    return ExecutionConfig(mapping=mapping, schedule=schedule, **fields)


# ----------------------------------------------------------------------
# coloring workloads
# ----------------------------------------------------------------------


def run_coloring(w: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop of validated ``run_gpu_coloring`` calls on one graph.

    Runs cycle through the :data:`SUBSEEDS` priority seeds
    ``seed * SUBSEEDS + k``, so seed 0 starts with priority seed 0. A
    run must agree with the earlier runs of its priority seed. A traced
    run pairs each seed's untraced run with a traced one and alternates
    two seeds, so the sixth run repeats a traced seed.
    """
    from repro.engine.backend import make_backend
    from repro.engine.context import RunContext
    from repro.gpusim.device import named_device
    from repro.harness import runner, suite

    out = Outcome()
    speed = Speed()
    builds = []
    for _ in range(SETUP_REPS):
        with speed.sampling():
            build_s = _cold_build(w.datasets, w.scale)
        builds.append(build_s * speed.factor())
    graph = suite.build(w.datasets[0], w.scale)
    device = named_device(w.device)
    config = _execution_config(*w.configs[0])
    algorithm = w.algorithms[0]
    backend = make_backend(w.backend)  # one pool for the whole loop
    probe = Probe()
    seeds = [seed * SUBSEEDS + k for k in range(SUBSEEDS)]
    min_ops = 6 if trace else SUBSEEDS

    runs: list[float] = []
    jobs: list[float] = []
    traced: dict[int, list[TracedOp]] = {s: [] for s in seeds[:2]}
    first: dict[int, str] = {}
    deadline = perf_counter() + seconds
    i = 0
    while i < min_ops or perf_counter() < deadline:
        tracing = trace and i % 2 == 1
        run_seed = seeds[(i // 2) % 2] if trace else seeds[i % SUBSEEDS]
        i += 1
        out.attempted += 1
        with speed.sampling(), probe.installed() if tracing else nullcontext():
            t0 = perf_counter()
            try:
                ctx = RunContext(
                    device=device,
                    seed=run_seed,
                    backend=TimedBackend(backend, probe) if tracing else backend,
                )
                executor = ctx.executor(config)
                t1 = perf_counter()
                result = runner.run_gpu_coloring(
                    graph, algorithm, executor, seed=run_seed, context=ctx, **w.algo_kwargs
                )
                t2 = perf_counter()
                digest = coloring_digest(result)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                out.fail(f"run {i}: {type(exc).__name__}: {exc}")
                probe.reset()
                speed.factor()
                continue
            t3 = perf_counter()
        f = speed.factor()
        if i == 1:
            _check_identity(out, w, seed, digest)
            out.identity_note = (
                f"priority seed {run_seed}: {result.num_colors} colors, "
                f"{result.num_iterations} sweeps, {result.total_cycles:,.1f} cycles"
            )
        expected = first.setdefault(run_seed, digest)
        if digest != expected:
            out.fail(f"run {i}: identity {digest} differs from seed {run_seed}'s {expected}")
        if tracing:
            traced[run_seed].append(TracedOp.from_probe(probe, t3 - t0, f))
        else:
            runs.append((t2 - t1) * f)
            jobs.append((t3 - t0) * f)

    if not jobs:
        return out  # every run failed: nothing to report
    if not trace:
        out.metrics = {
            "run_s_p50": _median(runs),
            "job_s_p50": _median(jobs),
            "cells_per_s": len(jobs) / sum(jobs),
            "setup_s": _median(builds),
            "peak_rss_mb": _peak_rss_mb(),
        }
        return out
    units = [[op] for ops in traced.values() for op in ops]
    counted = traced[seeds[0]][:1]  # the identity's priority seed
    _layer_metrics(out, units, counted, untraced=[jobs], build_s=_median(builds))
    for ops in traced.values():
        for op in ops[1:]:
            _same_counts(out, ops[0], op)
    return out


# ----------------------------------------------------------------------
# served workload
# ----------------------------------------------------------------------


class _Server:
    """An in-process ``repro serve`` on a Unix socket, with its client."""

    def __init__(self, store: Path, socket_path: str) -> None:
        from repro.serve import ServeApp, ServeClient, make_unix_server

        self.app = ServeApp(store, workers=1)
        try:
            self.http = make_unix_server(self.app, socket_path)
        except BaseException:
            self.app.close()
            raise
        self.thread = threading.Thread(target=self.http.serve_forever, daemon=True)
        self.thread.start()
        self.client = ServeClient(socket_path=socket_path, timeout=JOB_TIMEOUT_S)
        self.store = store

    def close(self) -> None:
        self.http.shutdown()
        self.http.server_close()
        self.app.close()
        self.thread.join(timeout=10.0)


def _boot(w: Workload, scratch: Path, k: int) -> tuple[_Server, float, float]:
    """Cold graph builds plus a server boot: (server, build wall, set-up wall)."""
    t0 = perf_counter()
    build_s = _cold_build(w.datasets, w.scale)
    # a relative socket path keeps clear of the 108-byte AF_UNIX limit
    sock = scratch / f"serve{k}.sock"
    try:
        sock_path = str(sock.relative_to(Path.cwd()))
    except ValueError:
        sock_path = str(sock)
    server = _Server(scratch / f"runs{k}.sqlite", sock_path)
    try:
        server.client.health()
    except BaseException:
        server.close()
        raise
    return server, build_s, perf_counter() - t0


def _spec(w: Workload, config: tuple, seed: int) -> dict:
    mapping, schedule, fields = config
    return {
        "kind": "batch",
        "datasets": list(w.datasets),
        "algorithms": list(w.algorithms),
        "scale": w.scale,
        "device": w.device,
        "mapping": mapping,
        "schedule": schedule,
        "seed": seed,
        # ``stealing`` stays unset: JSON has no StealingConfig
        "config": {k: v for k, v in fields.items() if v is not None},
    }


def _job_seed(seed: int, j: int) -> int:
    """A fresh seed per job, so the server's dedup never answers."""
    return seed * 100_000 + j


def run_served(
    w: Workload, seed: int, seconds: float, trace: bool, scratch: Path
) -> Outcome:
    """Closed loop of batch jobs against an in-process server, on one vCPU.

    The speed samples are taken on the main thread, the client; the jobs
    run on the server's worker thread. Pinned before the server starts,
    every thread inherits the one vCPU, so the samples see the jobs'
    speed. The jobs are bound by the interpreter lock, so the pin costs
    them no parallelism.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _served(w, seed, seconds, trace, scratch)
    finally:
        os.sched_setaffinity(0, cpus)


def _served(w: Workload, seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    """The loop of :func:`run_served`.

    Jobs alternate between the workload's configs and run in whole
    rounds (one job per config), so both kinds weigh equally. In a
    traced run each job of a round is traced, then restarted traced (the
    repetition whose counts must match), then followed by an untraced
    job of the same config for the overhead comparison.
    """
    from repro.store.db import RunStore

    out = Outcome()
    speed = Speed()
    setups = []
    builds = []
    server = None
    for k in range(SETUP_REPS):
        if server is not None:
            server.close()
        with speed.sampling():
            server, build_s, setup_s = _boot(w, scratch, k)
        f = speed.factor()
        setups.append(setup_s * f)
        builds.append(build_s * f)
    assert server is not None
    probe = Probe()
    cells = len(w.datasets) * len(w.algorithms)
    latencies: list[list[float]] = [[] for _ in w.configs]  # untraced, per config
    busy = 0.0  # reference seconds of untraced jobs, results fetched
    factors: dict[int, float] = {}  # job seed -> speed factor
    traced: list[TracedOp] = []
    first_rows: list = []

    def job(spec: dict | None, job_id: str | None = None, tracing: bool = False):
        """Submit ``spec`` (or restart ``job_id``) and fetch its checked rows.

        Returns (job id, latency, rows, time with the fetch, reference
        seconds per wall second, traced op or None); times are in
        reference seconds, and the latency ends when ``done`` is observed.
        """
        out.attempted += 1
        client = server.client
        with speed.sampling(), probe.installed() if tracing else nullcontext():
            t0 = perf_counter()
            if spec is not None:
                view = client.submit(spec)
                if view.get("deduped"):
                    raise RuntimeError(f"job {view['job_id']} was deduplicated")
                job_id = view["job_id"]
            else:
                client.restart(job_id)
            t1 = perf_counter()
            done = client.wait(job_id, timeout=JOB_TIMEOUT_S, poll_s=POLL_S)
            t2 = perf_counter()
            # the worker finishes its bookkeeping after the client sees `done`
            server.app.executor.wait_idle(timeout=JOB_TIMEOUT_S)
            rows = client.result(job_id)["result"] if done["state"] == "done" else []
            t3 = perf_counter()
        f = speed.factor()
        if done["state"] != "done":
            probe.reset()
            raise RuntimeError(f"job {job_id} ended {done['state']}: {done.get('error')}")
        op = None
        if tracing:
            op = TracedOp.from_probe(probe, t2 - t0, f)
            op.submit_s = (t1 - t0) * f
            op.self_s["serve"] += op.submit_s
        if len(rows) != cells:
            raise RuntimeError(f"job {job_id} returned {len(rows)} rows, not {cells}")
        return job_id, (t2 - t0) * f, rows, (t3 - t0) * f, f, op

    deadline = perf_counter() + seconds
    try:
        rnd = 0
        while rnd < 2 or perf_counter() < deadline:
            for c, config in enumerate(w.configs):
                j = rnd * len(w.configs) + c
                try:
                    job_id, latency, rows, spent, f, op = job(
                        _spec(w, config, _job_seed(seed, j)), tracing=trace
                    )
                    if rnd == 0:
                        first_rows.extend(rows)
                    if not trace:
                        latencies[c].append(latency)
                        busy += spent
                        factors[_job_seed(seed, j)] = f
                        continue
                    _, _, again, _, _, op2 = job(None, job_id, tracing=True)
                    if rows_digest(again) != rows_digest(rows):
                        out.fail(f"job {job_id}: restart rows differ from the first run")
                    _same_counts(out, op, op2)
                    traced.append(op)
                    # untraced comparison jobs take seeds from a disjoint range
                    _, latency, *_ = job(_spec(w, config, _job_seed(seed, 50_000 + j)))
                    latencies[c].append(latency)
                except Exception as exc:  # noqa: BLE001 - a failed job is counted
                    out.fail(f"job {j}: {type(exc).__name__}: {exc}")
            rnd += 1
    finally:
        server.close()

    if len(first_rows) == cells * len(w.configs):
        _check_identity(out, w, seed, rows_digest(first_rows))
        out.identity_note = f"rows of the first {len(w.configs)} jobs"
    if not all(latencies):
        return out  # every job of a config failed: nothing to report
    if not trace:
        with RunStore(server.store) as store:
            cell_walls = [
                r["wall_ms"] / 1e3 * factors[r["seed"]]
                for r in store.runs()
                if r["seed"] in factors
            ]
        out.metrics = {
            "run_s_p50": _median(cell_walls),
            # mean of the per-config medians: one median over both kinds
            # would fall in the gap between them
            "job_s_p50": statistics.fmean(_median(v) for v in latencies),
            "cells_per_s": len(factors) * cells / busy,
            "setup_s": _median(setups),
            "peak_rss_mb": _peak_rss_mb(),
        }
        return out
    n = len(w.configs)
    units = [traced[i : i + n] for i in range(0, len(traced) - n + 1, n)]
    counted = units[0] if units else []  # the first round: the identity's jobs
    _layer_metrics(out, units, counted, untraced=latencies, build_s=_median(builds))
    return out


# ----------------------------------------------------------------------
# per-layer figures
# ----------------------------------------------------------------------


def _unit_values(ops: list[TracedOp]) -> dict[str, float]:
    """Per-layer figures of one unit (a run, or one job per config)."""
    incl: dict[str, float] = {}
    counts: dict[str, int] = {}
    for op in ops:
        for k, v in op.incl_s.items():
            incl[k] = incl.get(k, 0.0) + v
        for k, v in op.counts.items():
            counts[k] = counts.get(k, 0) + v
    timing_s = incl.get("timing", 0.0)
    plan_s = incl.get("timing.plan", 0.0)
    lookups = counts.get("timing.plan.calls", 0)
    edges = counts.get("nbr.edges_reduced", 0)
    return {
        "nbr.reduce_s": incl.get("nbr.reduce", 0.0),
        "nbr.reduce_calls": counts.get("nbr.reduce.calls", 0),
        "nbr.edges_reduced": edges,
        "nbr.useful_frac": counts.get("nbr.edges_useful", 0) / edges if edges else 0.0,
        "nbr.bytes_computed": counts.get("nbr.bytes", 0),
        "nbr.first_fit_s": incl.get("nbr.first_fit", 0.0),
        "nbr.first_fit_calls": counts.get("nbr.first_fit.calls", 0),
        "timing.s": timing_s,
        "timing.calls": counts.get("timing.calls", 0),
        "timing.sched_s": timing_s - plan_s,
        "timing.plan_s": plan_s,
        "timing.plan_lookups": lookups,
        "timing.plan_hit_frac": counts.get("timing.plan_hits", 0) / lookups if lookups else 0.0,
        "timing.chunks": counts.get("timing.chunks", 0),
        "timing.steal_attempts": counts.get("timing.steal_attempts", 0),
        "host.self_s": sum(op.self_s["host"] for op in ops),
        "host.sweeps": counts.get("host.sweeps", 0),
        "validate.s": incl.get("validate", 0.0),
        "store.write_s": incl.get("store.write", 0.0),
        "store.ledger_s": incl.get("store.ledger", 0.0),
        "store.rows": counts.get("store.rows", 0),
        "serve.submit_s_p50": _median(op.submit_s for op in ops),
        "serve.overhead_s": (
            sum(op.wall for op in ops) - incl["serve.cell"] if "serve.cell" in incl else 0.0
        ),
    }


def _layer_metrics(
    out: Outcome,
    units: list[list[TracedOp]],
    counted: list[TracedOp],
    *,
    untraced: list[list[float]],
    build_s: float,
) -> None:
    """Fill ``out.metrics`` with per-layer figures and run the self-checks.

    ``units[i][c]`` is the traced operation of config ``c`` in unit ``i``;
    times are medians over units. Counts and ratios come from the unit
    ``counted``, the same work on every run with this seed.
    ``untraced[c]`` holds the walls of config ``c``'s untraced operations.
    """
    if not units or not counted or not all(untraced):
        out.broken.append("too few operations completed for a traced comparison")
        return
    per_unit = [_unit_values(u) for u in units]
    fixed = _unit_values(counted)
    metrics: dict[str, float] = {}
    for name in per_unit[0]:
        if UNITS[name] == "s":
            metrics[name] = _median(v[name] for v in per_unit)
        else:
            metrics[name] = fixed[name]
    ops = [op for u in units for op in u]
    wall = sum(op.wall for op in ops)
    self_s = {layer: sum(op.self_s[layer] for op in ops) for layer in (*LAYERS, "probe")}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = self_s[layer] / wall
    covered = sum(self_s.values())
    metrics["trace_coverage_frac"] = covered / wall
    metrics["graph.build_s"] = build_s
    # per config, so a mix of job kinds never compares unlike medians
    metrics["trace_overhead_frac"] = (
        statistics.fmean(
            _median(u[c].wall for u in units) / _median(walls)
            for c, walls in enumerate(untraced)
        )
        - 1.0
    )
    out.metrics = metrics
    out.layers = {layer: s / len(units) for layer, s in self_s.items()}
    if abs(covered / wall - 1.0) > 0.05:
        out.broken.append(
            f"layer self times sum to {covered:.3f} s, not within 5% of the "
            f"traced wall {wall:.3f} s"
        )


def _same_counts(out: Outcome, a: TracedOp, b: TracedOp) -> None:
    """Record a broken check unless two repetitions of one seed counted the same work."""
    va, vb = _unit_values([a]), _unit_values([b])
    for name in EXACT_COUNTS:
        if va[name] != vb[name]:
            out.broken.append(f"{name} did not repeat: {va[name]} then {vb[name]}")
