"""The batched sweep-log timing pass against per-sweep timing.

The oracle is the per-sweep timing path the sweep log replaced:
``time_iteration`` derives one plan (:func:`oracle_build_plan`) and
dispatches it through :func:`~repro.gpusim.scheduler.dispatch`,
:func:`~repro.gpusim.scheduler.dispatch_tasks` or a persistent-schedule
simulator, and ``time_uniform`` dispatches ``num_wavefronts`` equal
tasks. Work stealing runs through the event-loop reference of
``tests/loadbalance/test_workstealing_equivalence.py``, which has no
shortcut, from the explicit slab owner the executor used to build.
Every comparison is exact: values, float bits and ``type()``, both
counter sinks and the traced event sequence.

The host loops that log their sweeps are checked against copies of the
loops that timed each sweep as it ran (speculative rounds, distance-2
and windowed here; max-min, edge-centric and jp in
``test_live_edges_equivalence.py``): same colors, same
``IterationRecord``s field by field, same ``repr`` of the total.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.coloring.hybrid as hybrid_mod
import repro.coloring.kernels as kernels
import repro.coloring.partitioned as partitioned_mod
import repro.coloring.speculative as speculative_mod
import repro.loadbalance.workstealing as workstealing
from repro.coloring.base import UNCOLORED, IterationRecord
from repro.coloring.distance2 import (
    _d2_first_fit,
    _distance2_conflicts,
    speculative_distance2,
    two_hop_work,
)
from repro.coloring.kernels import (
    MAPPINGS,
    SCHEDULES,
    ExecutionConfig,
    GPUExecutor,
    IterationTiming,
    LoggedKernel,
    uniform_kernel,
)
from repro.coloring.windowed import window_first_fit, windowed_speculative_coloring
from repro.engine.context import RunContext, resolve_context
from repro.engine.plan import ExecutionPlan, as_degrees, coop_efficiency
from repro.gpusim.device import RADEON_HD_7950, SMALL_TEST_DEVICE
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.scheduler import dispatch, dispatch_tasks
from repro.gpusim.wavefront import (
    divergence_stats,
    num_wavefronts,
    simd_efficiency,
    wavefront_costs,
)
from repro.harness import suite
from repro.harness.runner import run_gpu_coloring
from repro.loadbalance.dynamic import simulate_dynamic_fetch
from repro.loadbalance.partition import chunk_costs, chunk_ranges, partition_by_threshold
from repro.loadbalance.workstealing import StealingConfig, simulate_static_persistent
from repro.obs.events import WALL
from tests.loadbalance.test_workstealing_equivalence import (
    assert_identical,
    reference_work_stealing,
)

# ---------------------------------------------------------------------------
# the oracle: per-sweep derivation and dispatch
# ---------------------------------------------------------------------------


def oracle_build_plan(degrees, config, costs, device) -> ExecutionPlan:
    deg = np.asarray(degrees, dtype=np.int64).ravel()
    if config.sort_by_degree:
        deg = np.sort(deg)[::-1]
    traffic = costs.traffic_elements(deg)
    if config.schedule == "grid":
        return _oracle_grid_plan(deg, config, costs, device, traffic)
    chunks, eff = _oracle_persistent_chunks(deg, config, costs, device)
    return ExecutionPlan(
        degrees=deg, traffic_elements=traffic, simd_efficiency=eff, chunk_cycles=chunks
    )


def _oracle_grid_plan(deg, config, costs, device, traffic) -> ExecutionPlan:
    if config.mapping == "thread":
        return ExecutionPlan(
            degrees=deg, traffic_elements=traffic, item_cycles=costs.thread_vertex_cycles(deg)
        )
    if config.mapping == "wavefront":
        return ExecutionPlan(
            degrees=deg,
            traffic_elements=traffic,
            simd_efficiency=coop_efficiency(deg, device.wavefront_size),
            tasks=costs.coop_vertex_cycles(deg),
        )
    low, high = partition_by_threshold(deg, config.degree_threshold)
    task_parts = []
    if low.size:
        lane = costs.thread_vertex_cycles(deg[low])
        task_parts.append(wavefront_costs(lane, device.wavefront_size))
    if high.size:
        task_parts.append(costs.coop_vertex_cycles(deg[high]))
    tasks = np.concatenate(task_parts) if task_parts else np.empty(0)
    div = (
        divergence_stats(costs.thread_vertex_cycles(deg[low]), device.wavefront_size)
        if low.size
        else None
    )
    eff = div.simd_efficiency if div else coop_efficiency(deg, device.wavefront_size)
    return ExecutionPlan(
        degrees=deg,
        traffic_elements=traffic,
        simd_efficiency=eff,
        tasks=tasks,
        kernel_suffix="+coop",
    )


def _oracle_persistent_chunks(deg, config, costs, device):
    wg = config.workgroup_size
    if config.mapping == "thread":
        lane = costs.thread_vertex_cycles(deg)
        eff = simd_efficiency(lane, device.wavefront_size)
        rounds = wavefront_costs(lane, wg)
        ranges = chunk_ranges(rounds.size, config.chunk_size // wg)
        return chunk_costs(rounds, ranges), eff
    if config.mapping == "wavefront":
        tasks = costs.coop_vertex_cycles(deg, lanes=wg)
        eff = coop_efficiency(deg, wg)
        ranges = chunk_ranges(tasks.size, max(1, config.chunk_size // wg))
        return chunk_costs(tasks, ranges), eff
    low, high = partition_by_threshold(deg, config.degree_threshold)
    parts = []
    eff_lane = None
    if low.size:
        lane = costs.thread_vertex_cycles(deg[low])
        eff_lane = simd_efficiency(lane, device.wavefront_size)
        rounds = wavefront_costs(lane, wg)
        parts.append(chunk_costs(rounds, chunk_ranges(rounds.size, config.chunk_size // wg)))
    if high.size:
        parts.append(costs.coop_vertex_cycles(deg[high], lanes=wg))
    chunks = np.concatenate(parts) if parts else np.empty(0)
    return chunks, eff_lane if eff_lane is not None else coop_efficiency(deg, wg)


def slab_owner(num_chunks: int, workers: int) -> np.ndarray:
    """Contiguous-slab initial ownership (the OpenCL baseline), as an array."""
    return np.arange(num_chunks, dtype=np.int64) // max(1, -(-num_chunks // workers))


class OracleExecutor(GPUExecutor):
    """Times each logged kernel on its own, one plan and one dispatch each."""

    def plan_for(self, degrees):
        return oracle_build_plan(degrees, self.config, self.costs, self.device)

    def time_kernels(self, kernels_):
        return [
            self.time_iteration(k.degrees, name=k.name)
            if k.degrees is not None
            else self.time_uniform(
                k.num_items,
                k.cycles_per_item,
                traffic_elements=k.traffic_elements,
                name=k.name,
            )
            for k in kernels_
        ]

    def time_iteration(self, active_degrees, *, name="kernel"):
        deg = np.asarray(active_degrees, dtype=np.int64).ravel()
        if deg.size == 0:
            return IterationTiming(cycles=0.0, simd_efficiency=1.0)
        plan = self.plan_for(deg)
        timing = (
            self._oracle_grid(plan, name)
            if self.config.schedule == "grid"
            else self._oracle_persistent(plan, name)
        )
        self._observe(timing, traffic_elements=plan.traffic_elements, work_items=deg.size)
        return timing

    def time_uniform(self, num_items, cycles_per_item, *, traffic_elements=0.0, name="uniform"):
        if num_items == 0:
            return IterationTiming(cycles=0.0, simd_efficiency=1.0)
        dev = self.device
        n_wf = num_wavefronts(num_items, dev.wavefront_size)
        tasks = np.full(n_wf, cycles_per_item, dtype=np.float64)
        res = dispatch_tasks(
            name,
            tasks,
            dev,
            self.memory,
            tasks_per_group=self.config.workgroup_size // dev.wavefront_size,
            traffic_elements=traffic_elements,
            tracer=self.context.tracer,
        )
        timing = IterationTiming(
            cycles=res.total_cycles,
            simd_efficiency=num_items / (n_wf * dev.wavefront_size),
            kernels=(name,),
            cu_busy=res.cu_busy,
            bandwidth_bound=res.is_bandwidth_bound,
        )
        self._observe(timing, traffic_elements=traffic_elements, work_items=num_items)
        return timing

    def _oracle_grid(self, plan, name):
        cfg, dev = self.config, self.device
        if cfg.mapping == "thread":
            spec = KernelSpec(
                name=name,
                item_cycles=plan.item_cycles,
                workgroup_size=cfg.workgroup_size,
                traffic_elements=plan.traffic_elements,
            )
            res = dispatch(spec, dev, self.memory, tracer=self.context.tracer)
            return IterationTiming(
                cycles=res.total_cycles,
                simd_efficiency=res.divergence.simd_efficiency,
                kernels=(name,),
                cu_busy=res.cu_busy,
                bandwidth_bound=res.is_bandwidth_bound,
            )
        kname = name + plan.kernel_suffix
        res = dispatch_tasks(
            kname,
            plan.tasks,
            dev,
            self.memory,
            traffic_elements=plan.traffic_elements,
            tracer=self.context.tracer,
        )
        return IterationTiming(
            cycles=res.total_cycles,
            simd_efficiency=plan.simd_efficiency,
            kernels=(kname,),
            cu_busy=res.cu_busy,
            bandwidth_bound=res.is_bandwidth_bound,
        )

    def _oracle_persistent(self, plan, name):
        cfg, dev = self.config, self.device
        chunk_cyc = plan.chunk_cycles
        workers = dev.num_cus * cfg.persistent_groups_per_cu
        if cfg.schedule == "static":
            res = simulate_static_persistent(
                chunk_cyc,
                slab_owner(chunk_cyc.size, workers),
                workers,
                pop_cycles=dev.atomic_cycles / 8.0,
            )
        elif cfg.schedule == "dynamic":
            res = simulate_dynamic_fetch(chunk_cyc, workers, atomic_cycles=dev.atomic_cycles)
        else:
            steal_cfg = cfg.stealing or StealingConfig(
                num_workers=workers,
                steal_cycles=dev.steal_attempt_cycles,
                pop_cycles=dev.atomic_cycles / 8.0,
            )
            if steal_cfg.num_workers != workers:
                steal_cfg = replace(steal_cfg, num_workers=workers)
            res = reference_work_stealing(
                chunk_cyc,
                slab_owner(chunk_cyc.size, workers),
                steal_cfg,
                tracer=self.context.tracer,
            )
        bw = self.memory.bandwidth_floor_cycles(plan.traffic_elements)
        tracer = self.context.tracer
        if tracer is not None:
            util = (
                float(res.busy_cycles.sum() / (workers * res.makespan_cycles))
                if res.makespan_cycles > 0
                else 1.0
            )
            tracer.sim_instant(
                f"{name}:{cfg.schedule}",
                cat="sched",
                at=0.0,
                workgroups=int(chunk_cyc.size),
                cus=workers,
                cu_utilization=util,
                compute_cycles=res.makespan_cycles,
                bandwidth_cycles=bw,
                bandwidth_bound=bool(bw > res.makespan_cycles),
            )
        return IterationTiming(
            cycles=dev.launch_cycles + max(res.makespan_cycles, bw),
            simd_efficiency=plan.simd_efficiency,
            kernels=(name,),
            stealing=res,
            cu_busy=res.busy_cycles,
            bandwidth_bound=bw > res.makespan_cycles,
        )


# ---------------------------------------------------------------------------
# exact comparison
# ---------------------------------------------------------------------------


def assert_same(a, b, what=""):
    """Equal value, float bits and ``type()``."""
    assert type(a) is type(b), (what, type(a), type(b))
    if isinstance(a, np.ndarray):
        assert (a.dtype.str, a.shape, a.tobytes()) == (b.dtype.str, b.shape, b.tobytes()), what
    else:
        assert repr(a) == repr(b), (what, a, b)


def assert_same_timing(new: IterationTiming, old: IterationTiming) -> None:
    for name in ("cycles", "simd_efficiency", "kernels", "bandwidth_bound", "cu_busy"):
        assert_same(getattr(new, name), getattr(old, name), name)
    assert (new.stealing is None) == (old.stealing is None)
    if new.stealing is not None:
        for name in (
            "makespan_cycles",
            "busy_cycles",
            "overhead_cycles",
            "chunks_executed",
            "steal_attempts",
            "steals_succeeded",
            "chunks_migrated",
        ):
            assert_same(getattr(new.stealing, name), getattr(old.stealing, name), name)


def events(ring) -> list[str]:
    """The traced sequence; wall-clock stamps (harness phases) are left out."""
    return [
        repr((e.name, e.cat, e.args) if e.domain == WALL else (e.name, e.cat, e.ts, e.dur, e.args))
        for e in ring.events
    ]


def sinks(ex: GPUExecutor) -> list[str]:
    return [repr(vars(ex.counters)), repr(vars(ex.context.counters))]


def traced_pair(device, config):
    """A traced executor of each kind, on contexts of their own."""
    out = []
    for cls in (GPUExecutor, OracleExecutor):
        ctx = RunContext(device=device)
        ring = ctx.enable_tracing(capacity=1 << 20)
        out.append((cls(ctx, config), ring))
    return out


def assert_same_run(new_ex, new_ring, old_ex, old_ring) -> None:
    assert sinks(new_ex) == sinks(old_ex)
    assert events(new_ring) == events(old_ring)


# ---------------------------------------------------------------------------
# property: random logs × every mapping, schedule and sort setting
# ---------------------------------------------------------------------------

#: the window bound the property runs with, so that logs cross it cheaply
WINDOW = 700


def _degrees(draw, size: int) -> np.ndarray:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profile = draw(st.sampled_from(["zeros", "small", "hubs", "skewed"]))
    if profile == "zeros":
        return np.zeros(size, dtype=np.int64)
    if profile == "small":
        return rng.integers(0, 6, size=size)
    if profile == "hubs":
        deg = rng.integers(0, 4, size=size)
        hubs = rng.random(size) < 0.02
        deg[hubs] = rng.integers(100, 5000, size=int(hubs.sum()))
        return deg
    return np.minimum((rng.pareto(1.1, size=size) * 3).astype(np.int64), 20_000)


@st.composite
def timing_cases(draw):
    if draw(st.booleans()):
        device, wg = RADEON_HD_7950, draw(st.sampled_from([64, 256]))
        chunk = wg * draw(st.sampled_from([1, 4]))
    else:  # 2 CUs of 1 pipe, 4-lane wavefronts: workgroups pack greedily
        device, wg = SMALL_TEST_DEVICE, draw(st.sampled_from([4, 8]))
        chunk = wg * draw(st.sampled_from([1, 2]))
    config = ExecutionConfig(
        mapping=draw(st.sampled_from(MAPPINGS)),
        schedule=draw(st.sampled_from(SCHEDULES)),
        workgroup_size=wg,
        chunk_size=chunk,
        degree_threshold=draw(st.sampled_from([1, 3, 64])),
        sort_by_degree=draw(st.booleans()),
        persistent_groups_per_cu=draw(st.sampled_from([1, 2])),
    )
    full = device.num_cus * wg  # one workgroup per CU
    sizes = [0, 1, 2, 5, 63, 64, 65, full - 1, full, full + 1, WINDOW - 1, WINDOW, WINDOW + 1]
    log: list[LoggedKernel] = []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["vertex", "vertex", "repeat", "uniform"]))
        previous = [k.degrees for k in log if k.degrees is not None]
        if kind == "repeat" and previous:
            deg = draw(st.sampled_from(previous)).copy()
            log.append(LoggedKernel(f"k{i}", deg))
        elif kind == "uniform":
            items = draw(st.sampled_from([0, 1, 63, 64, 65, full * 4 + 3, WINDOW + 1]))
            per_item = draw(st.sampled_from([0.0, 1.0, 13.37, 250.5]))
            traffic = draw(st.sampled_from([0.0, 0.5, 2.0 * items]))
            log.append(uniform_kernel(f"k{i}", items, per_item, traffic))
        else:
            deg = _degrees(draw, draw(st.sampled_from(sizes)))
            log.append(LoggedKernel(f"k{i}", as_degrees(deg)))
    return device, config, log


@settings(max_examples=250, deadline=None)
@given(timing_cases())
def test_batched_pass_matches_per_sweep_timing(case):
    device, config, log = case
    (new_ex, new_ring), (old_ex, old_ring) = traced_pair(device, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_WINDOW_ITEMS", WINDOW)
        new = new_ex.time_kernels(log)
    old = old_ex.time_kernels(log)
    assert len(new) == len(old) == len(log)
    for a, b in zip(new, old, strict=True):
        assert_same_timing(a, b)
    assert_same_run(new_ex, new_ring, old_ex, old_ring)


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_one_entry_calls_match(mapping, schedule):
    config = ExecutionConfig(mapping=mapping, schedule=schedule)
    (new_ex, new_ring), (old_ex, old_ring) = traced_pair(RADEON_HD_7950, config)
    deg = np.array([5, 1, 900, 33, 7, 2, 0, 64, 63], dtype=np.int64)
    for ex in (new_ex, old_ex):
        ex.time_iteration(deg, name="a")
        ex.time_iteration(deg.copy(), name="b")
        ex.time_uniform(1000, 12.5, traffic_elements=2000.0, name="u")
        ex.time_iteration([], name="empty")
    assert_same_run(new_ex, new_ring, old_ex, old_ring)


# ---------------------------------------------------------------------------
# whole runs: every GPU algorithm under both served configurations
# ---------------------------------------------------------------------------

GPU_ALGORITHMS = ("edge-centric", "hybrid-switch", "jp", "maxmin", "partitioned", "speculative")
SERVED_CONFIGS = (("thread", "grid"), ("hybrid", "stealing"))


def served_configs():
    for mapping, schedule in SERVED_CONFIGS:
        yield ExecutionConfig(mapping=mapping, schedule=schedule, chunk_size=256)


def assert_same_result(new, old) -> None:
    """Same colors, the same records field by field, the same total."""
    assert np.array_equal(new.colors, old.colors)
    assert_same_records(new.iterations, old.iterations)
    assert_same(new.total_cycles, old.total_cycles, "total_cycles")


def assert_same_records(new: list[IterationRecord], old: list[IterationRecord]) -> None:
    assert new == old
    for a, b in zip(new, old, strict=True):
        for name in ("index", "active_vertices", "newly_colored", "cycles", "simd_efficiency"):
            assert_same(getattr(a, name), getattr(b, name), name)


def assert_runs_match(run) -> None:
    """``run(executor)`` gives the same result and sinks either way."""
    for config in served_configs():
        (new_ex, new_ring), (old_ex, old_ring) = traced_pair(RADEON_HD_7950, config)
        assert_same_result(run(new_ex), run(old_ex))
        assert_same_run(new_ex, new_ring, old_ex, old_ring)


@pytest.mark.parametrize("dataset", suite.suite_names())
def test_runs_match_per_sweep_timing(dataset):
    graph = suite.build(dataset, "small")
    for algorithm in GPU_ALGORITHMS:
        assert_runs_match(
            lambda ex: run_gpu_coloring(graph, algorithm, ex, seed=5, context=ex.context)
        )
    assert_runs_match(lambda ex: windowed_speculative_coloring(graph, ex, seed=5, window=4))


#: tiny suite graphs on which distance-2 runs fast (its first fit is a
#: Python loop over two-hop neighborhoods)
D2_DATASETS = ("powerlaw", "road", "grid2d", "random", "geometric", "smallworld", "regular")


@pytest.mark.parametrize("dataset", D2_DATASETS)
def test_distance2_runs_match_per_sweep_timing(dataset):
    graph = suite.build(dataset, "tiny")
    assert_runs_match(lambda ex: speculative_distance2(graph, ex, seed=5))


def test_served_stealing_runs_take_the_shortcut(monkeypatch):
    # small hybrid/stealing sweeps mostly launch fewer chunks than workers
    taken = []
    real = workstealing._one_chunk_each

    def counted(costs, *args):
        taken.append(costs.size)
        return real(costs, *args)

    monkeypatch.setattr(workstealing, "_one_chunk_each", counted)
    ex = RunContext().executor(mapping="hybrid", schedule="stealing", chunk_size=256)
    result = run_gpu_coloring(suite.build("powerlaw", "small"), "speculative", ex, seed=5)
    kernels_run = 2 * result.num_iterations
    assert len(taken) > kernels_run // 2


# ---------------------------------------------------------------------------
# the stealing shortcut against the event loop
# ---------------------------------------------------------------------------


@st.composite
def few_chunk_cases(draw):
    """At most as many chunks as workers, on distinct or shared workers."""
    w = draw(st.integers(1, 32))
    n = draw(st.integers(0, w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owners = draw(st.sampled_from(["prefix", "shuffled-prefix", "distinct", "shared"]))
    if owners == "prefix":
        owner = np.arange(n)
    elif owners == "shuffled-prefix":
        owner = rng.permutation(n)
    elif owners == "distinct":  # one chunk each, but not workers 0..n-1
        owner = rng.permutation(w)[:n]
    else:
        owner = rng.integers(0, w, size=n)
    costs = rng.choice([0.0, 1.0, 2.5, 8.0, 400.0], size=n)
    cfg = StealingConfig(
        num_workers=w,
        steal_cycles=draw(st.sampled_from([0.0, 3.0, 400.0])),
        pop_cycles=draw(st.sampled_from([0.0, 1.0, 8.0])),
        steal_policy=draw(st.sampled_from(["random", "richest"])),
        seed=draw(st.integers(0, 1000)),
    )
    return costs, owner.astype(np.int64), cfg


@settings(max_examples=300, deadline=None)
@given(few_chunk_cases())
def test_stealing_shortcut_matches_event_loop(case):
    assert_identical(*case)


# ---------------------------------------------------------------------------
# workgroups that are not whole wavefronts
# ---------------------------------------------------------------------------


def _set_config(pair, config):
    # the executor rejects these sizes when it is built; a config set
    # afterwards is the only way to reach the timing pass with them
    for ex, _ in pair:
        ex.config = config
    return pair


@pytest.mark.parametrize("workgroup_size", [32, 100])
@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_workgroups_off_the_wavefront_width(workgroup_size, mapping, schedule):
    config = ExecutionConfig(
        mapping=mapping,
        schedule=schedule,
        workgroup_size=workgroup_size,
        chunk_size=2 * workgroup_size,
    )
    with pytest.raises(ValueError, match="multiple of the device wavefront size"):
        RunContext().executor(config)
    deg = as_degrees(np.array([5, 1, 900, 33, 7, 2, 0, 64, 63] * 40))
    uniform = [uniform_kernel("u", 1000, 12.5, 2000.0), uniform_kernel("v", 70, 3.0)]
    log = [uniform[0], LoggedKernel("a", deg), LoggedKernel("b", deg.copy()), uniform[1]]
    if mapping == "thread" and schedule == "grid":
        # dispatch() refuses partial-wavefront workgroups; uniform
        # kernels still time, with one wavefront task per SIMD pipe
        for ex, _ in _set_config(traced_pair(RADEON_HD_7950, ExecutionConfig()), config):
            with pytest.raises(ValueError, match="must be a multiple of wavefront_size"):
                ex.time_kernels(log)
        log = uniform
    pair = _set_config(traced_pair(RADEON_HD_7950, ExecutionConfig()), config)
    (new_ex, new_ring), (old_ex, old_ring) = pair
    new, old = new_ex.time_kernels(log), old_ex.time_kernels(log)
    for a, b in zip(new, old, strict=True):
        assert_same_timing(a, b)
    assert_same_run(new_ex, new_ring, old_ex, old_ring)


# ---------------------------------------------------------------------------
# host loops: the logged loops against loops that time each sweep
# ---------------------------------------------------------------------------


def reference_speculative_rounds(
    graph,
    colors,
    active,
    priorities,
    executor,
    *,
    name_prefix="spec",
    start_index=0,
    max_iterations=None,
    context=None,
):
    backend = resolve_context(context, executor).backend
    degrees = graph.degrees
    edge_u, edge_v = graph.edge_array()
    iterations, total_cycles = [], 0.0
    cap = max_iterations if max_iterations is not None else graph.num_vertices + 1
    k = 0
    while active.size:
        if k >= cap:
            break
        colors[active] = backend.first_fit_colors(graph, colors, active)
        same = (colors[edge_u] == colors[edge_v]) & (colors[edge_u] != UNCOLORED)
        cu, cv = edge_u[same], edge_v[same]
        losers = np.unique(np.where(priorities[cu] < priorities[cv], cu, cv))
        colors[losers] = UNCOLORED
        cycles, eff = 0.0, None
        idx = start_index + k
        names = (f"{name_prefix}_assign_it{idx}", f"{name_prefix}_detect_it{idx}")
        if executor is not None:
            t1 = executor.time_iteration(degrees[active], name=names[0])
            t2 = executor.time_iteration(degrees[active], name=names[1])
            cycles = t1.cycles + t2.cycles
            eff = t1.simd_efficiency
            total_cycles += cycles
        iterations.append(
            IterationRecord(
                index=idx,
                active_vertices=int(active.size),
                newly_colored=int(active.size - losers.size),
                cycles=cycles,
                simd_efficiency=eff,
                kernels=names,
            )
        )
        active = losers
        k += 1
    return iterations, total_cycles


def reference_distance2(graph, executor, *, seed):
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = np.random.default_rng(seed).permutation(n)
    work = two_hop_work(graph)
    iterations, total_cycles = [], 0.0
    active = np.arange(n, dtype=np.int64)
    k = 0
    while active.size:
        snapshot = colors.copy()
        for v in active:
            colors[int(v)] = _d2_first_fit(graph, snapshot, int(v))
        losers = np.intersect1d(_distance2_conflicts(graph, colors, priorities), active)
        colors[losers] = UNCOLORED
        names = (f"d2_assign_it{k}", f"d2_detect_it{k}")
        t1 = executor.time_iteration(work[active], name=names[0])
        t2 = executor.time_iteration(work[active], name=names[1])
        cycles = t1.cycles + t2.cycles
        total_cycles += cycles
        iterations.append(
            IterationRecord(
                index=k,
                active_vertices=int(active.size),
                newly_colored=int(active.size - losers.size),
                cycles=cycles,
                simd_efficiency=t1.simd_efficiency,
                kernels=names,
            )
        )
        active = losers
        k += 1
    return colors, iterations, total_cycles


def reference_windowed(graph, executor, *, window, seed):
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    priorities = np.random.default_rng(seed).permutation(n)
    degrees = graph.degrees
    edge_u, edge_v = graph.edge_array()
    iterations, total_cycles = [], 0.0
    active = np.arange(n, dtype=np.int64)
    base = k = 0
    while active.size:
        num_active_before = int(active.size)
        proposals = window_first_fit(graph, colors, active, base, window)
        placeable = proposals >= 0
        if not placeable.any():
            base += window
            continue
        placed = active[placeable]
        colors[placed] = proposals[placeable]
        same = (colors[edge_u] == colors[edge_v]) & (colors[edge_u] != UNCOLORED)
        cu, cv = edge_u[same], edge_v[same]
        losers = np.unique(np.where(priorities[cu] < priorities[cv], cu, cv))
        colors[losers] = UNCOLORED
        active = np.union1d(losers, active[~placeable])
        names = (f"win_assign_it{k}", f"win_detect_it{k}")
        t1 = executor.time_iteration(degrees[placed], name=names[0])
        t2 = executor.time_iteration(degrees[placed], name=names[1])
        cycles = t1.cycles + t2.cycles
        total_cycles += cycles
        iterations.append(
            IterationRecord(
                index=k,
                active_vertices=num_active_before,
                newly_colored=int(placed.size - losers.size),
                cycles=cycles,
                simd_efficiency=t1.simd_efficiency,
                kernels=names,
            )
        )
        k += 1
    return colors, iterations, total_cycles


def fresh_executor(config):
    return RunContext().executor(config)


@pytest.mark.parametrize("dataset", suite.suite_names())
def test_speculative_loops_match_per_sweep_loop(dataset):
    # speculative, partitioned and hybrid-switch's tail all run rounds
    graph = suite.build(dataset, "small")
    modules = (speculative_mod, partitioned_mod, hybrid_mod)
    for config in served_configs():
        for algorithm in ("speculative", "partitioned", "hybrid-switch"):
            new = run_gpu_coloring(graph, algorithm, fresh_executor(config), seed=5)
            with pytest.MonkeyPatch.context() as mp:
                for module in modules:
                    mp.setattr(module, "speculative_rounds", reference_speculative_rounds)
                old = run_gpu_coloring(graph, algorithm, fresh_executor(config), seed=5)
            assert_same_result(new, old)


@pytest.mark.parametrize("dataset", D2_DATASETS)
def test_distance2_loop_matches_per_sweep_loop(dataset):
    graph = suite.build(dataset, "tiny")
    for config in served_configs():
        new = speculative_distance2(graph, fresh_executor(config), seed=5)
        colors, records, total = reference_distance2(graph, fresh_executor(config), seed=5)
        assert np.array_equal(new.colors, colors)
        assert_same_records(new.iterations, records)
        assert_same(new.total_cycles, total, "total_cycles")


@pytest.mark.parametrize("dataset", suite.suite_names())
@pytest.mark.parametrize("window", [4, 32])
def test_windowed_loop_matches_per_sweep_loop(dataset, window):
    graph = suite.build(dataset, "small")
    for config in served_configs():
        new = windowed_speculative_coloring(graph, fresh_executor(config), seed=5, window=window)
        colors, records, total = reference_windowed(
            graph, fresh_executor(config), window=window, seed=5
        )
        assert np.array_equal(new.colors, colors)
        assert_same_records(new.iterations, records)
        assert_same(new.total_cycles, total, "total_cycles")
