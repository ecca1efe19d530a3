"""Kernel cost model + the engine adapters for coloring iterations.

This module is the bridge between the *algorithms* (which operate on
real graph data and produce real colorings) and the *simulator* (which
charges time). Each iteration of an iterative coloring algorithm hands
the engine its active vertex set; the engine derives the corresponding
:class:`~repro.engine.plan.ExecutionPlan` under a chosen **mapping** and
**schedule** and returns the simulated cycles.

The work-distribution derivations themselves live in
:mod:`repro.engine.plan` (one segmented pass per timing window), and the
run-level plumbing — device, memory model, backend, counters — in
:mod:`repro.engine.context`. What remains here is the first-order cost
model and the :class:`GPUExecutor` adapter that dispatches plans.

Mappings (how vertices become SIMT work):

* ``thread``   — one lane per vertex; a lane walks its own neighbor list
  (scattered reads, cost linear in degree). The paper's baseline.
* ``wavefront`` — one wavefront per vertex; 64 lanes stride one neighbor
  list cooperatively (coalesced reads, ``ceil(d/64)`` lockstep steps +
  a log-depth reduction).
* ``hybrid``    — degree threshold splits vertices: low-degree →
  ``thread``, high-degree → ``wavefront``. The paper's hybrid kernel.

Schedules (how work reaches compute units):

* ``grid``     — ordinary kernel launch; hardware greedy workgroup
  dispatch (:func:`repro.gpusim.scheduler.dispatch`).
* ``static``   — persistent workgroups, one per CU, each owning a static
  contiguous slab of chunks.
* ``dynamic``  — persistent workgroups fetching chunks from a global
  atomic counter.
* ``stealing`` — persistent workgroups with chunk deques and work
  stealing (the paper's technique).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ..engine.context import RunContext
from ..engine.plan import ExecutionPlan, _split, as_degrees, build_plan, build_plans
from ..gpusim.counters import ExecutionCounters
from ..gpusim.device import DeviceConfig
from ..gpusim.memory import MemoryModel
from ..gpusim.scheduler import dispatch_workgroups, workgroup_costs
from ..gpusim.wavefront import num_wavefronts, segmented_wavefront_costs, simd_efficiency
from ..loadbalance.dynamic import simulate_dynamic_fetch
from ..loadbalance.workstealing import (
    StealingConfig,
    StealingResult,
    simulate_static_persistent,
    simulate_work_stealing,
)
from .base import IterationRecord

__all__ = [
    "MAPPINGS",
    "SCHEDULES",
    "CostModel",
    "ExecutionConfig",
    "IterationTiming",
    "LoggedKernel",
    "SweepLog",
    "GPUExecutor",
    "uniform_kernel",
]

MAPPINGS = ("thread", "wavefront", "hybrid")
SCHEDULES = ("grid", "static", "dynamic", "stealing")


@dataclass(frozen=True)
class CostModel:
    """First-order per-vertex kernel cost laws.

    A coloring iteration's inner loop per vertex ``v`` of degree ``d``:
    read own state (priority, color — a few scattered elements), scan
    ``d`` neighbor ids (CSR ``indices``) and ``d`` neighbor states, and
    do a couple of ALU ops per neighbor. The two mappings pay for the
    same elements at different rates (scattered vs. streamed) — that
    rate gap is the entire hybrid-mapping story.
    """

    device: DeviceConfig
    memory: MemoryModel

    #: scattered element reads per neighbor under the thread mapping
    #: (one for the neighbor id, one for the neighbor's state)
    reads_per_neighbor: float = 2.0
    #: ALU ops per neighbor (compare + blend)
    alu_per_neighbor: float = 2.0
    #: fixed scattered elements per active vertex (own priority, color,
    #: row offsets, result write)
    fixed_reads: float = 4.0
    #: fixed ALU ops per active vertex (loop setup, predicate)
    fixed_alu: float = 8.0

    def thread_vertex_cycles(self, degrees: np.ndarray) -> np.ndarray:
        """Per-lane cost of one vertex under the thread mapping."""
        d = np.asarray(degrees, dtype=np.float64)
        per_nbr = (
            self.reads_per_neighbor * self.memory.scattered_element_cycles
            + self.alu_per_neighbor * self.device.alu_cycles
        )
        fixed = (
            self.fixed_reads * self.memory.scattered_element_cycles
            + self.fixed_alu * self.device.alu_cycles
        )
        cycles = d * per_nbr
        cycles += fixed
        return cycles

    def coop_vertex_cycles(self, degrees: np.ndarray, lanes: int | None = None) -> np.ndarray:
        """Cost of one vertex processed cooperatively by ``lanes`` lanes.

        ``ceil(d / lanes)`` lockstep strides, each paying streamed reads
        and ALU for one element per lane, plus two log-depth reductions
        (max and min — the max-min kernel needs both; single-reduction
        algorithms overpay by a few cycles, below model noise).
        """
        lanes = lanes or self.device.wavefront_size
        d = np.asarray(degrees, dtype=np.float64)
        return self.coop_stride_cycles(np.ceil(d / lanes), lanes)

    def coop_stride_cycles(self, strides: np.ndarray, lanes: int) -> np.ndarray:
        """:meth:`coop_vertex_cycles` from the ``ceil(d / lanes)`` strides."""
        per_step = (
            self.reads_per_neighbor * self.memory.streamed_element_cycles
            + self.alu_per_neighbor * self.device.alu_cycles
        )
        fixed = (
            self.fixed_reads * self.memory.scattered_element_cycles
            + self.fixed_alu * self.device.alu_cycles
            + 2.0 * np.log2(lanes) * self.device.reduce_step_cycles
        )
        cycles = strides * per_step
        cycles += fixed
        return cycles

    def traffic_elements(self, degrees: np.ndarray) -> float:
        """Total 32-bit element accesses of one iteration's kernel."""
        d = np.asarray(degrees, dtype=np.float64)
        return float(
            self.reads_per_neighbor * d.sum() + self.fixed_reads * d.size
        )


@dataclass(frozen=True)
class ExecutionConfig:
    """How the kernels are mapped and scheduled.

    ``chunk_size`` (vertices per work-stealing/dynamic chunk) must be a
    multiple of ``workgroup_size`` under the thread mapping so chunks
    align with lockstep rounds. ``sort_by_degree`` packs similar-degree
    vertices into the same wavefront — a divergence-reducing layout
    optimization analyzed as one of the paper's "important factors".
    """

    mapping: str = "thread"
    schedule: str = "grid"
    workgroup_size: int = 256
    degree_threshold: int = 64
    chunk_size: int = 256
    sort_by_degree: bool = False
    stealing: StealingConfig | None = None
    persistent_groups_per_cu: int = 1

    def __post_init__(self) -> None:
        if self.mapping not in MAPPINGS:
            raise ValueError(f"mapping must be one of {MAPPINGS}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if self.workgroup_size <= 0:
            raise ValueError("workgroup_size must be positive")
        if self.chunk_size <= 0 or self.chunk_size % self.workgroup_size:
            raise ValueError("chunk_size must be a positive multiple of workgroup_size")
        if self.degree_threshold < 1:
            raise ValueError("degree_threshold must be >= 1")
        if self.persistent_groups_per_cu < 1:
            raise ValueError("persistent_groups_per_cu must be >= 1")


@dataclass
class IterationTiming:
    """Simulated cost of one algorithm iteration's kernel work."""

    cycles: float
    simd_efficiency: float
    kernels: tuple[str, ...] = ()
    stealing: StealingResult | None = field(default=None, repr=False)
    cu_busy: np.ndarray | None = field(default=None, repr=False)
    bandwidth_bound: bool = False


#: items (active vertices, or uniform work items) one batched timing
#: pass derives at once; bounds the pass's temporary arrays
_WINDOW_ITEMS = 1 << 17


class LoggedKernel(NamedTuple):
    """One kernel launch as a host loop logged it, not yet timed.

    A vertex kernel carries its active ``degrees`` (see
    :func:`~repro.engine.plan.as_degrees`). A uniform kernel has
    ``degrees=None`` and ``num_items`` identical items of
    ``cycles_per_item`` each, moving ``traffic_elements`` elements.
    """

    name: str
    degrees: np.ndarray | None = None
    num_items: int = 0
    cycles_per_item: float = 0.0
    traffic_elements: float = 0.0

    @property
    def items(self) -> int:
        return self.degrees.size if self.degrees is not None else self.num_items


def uniform_kernel(
    name: str, num_items: int, cycles_per_item: float, traffic_elements: float = 0.0
) -> LoggedKernel:
    """A validated uniform :class:`LoggedKernel`."""
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    if not (math.isfinite(cycles_per_item) and cycles_per_item >= 0):
        raise ValueError("cycles_per_item must be finite and non-negative")
    if not (math.isfinite(traffic_elements) and traffic_elements >= 0):
        raise ValueError("traffic_elements must be finite and non-negative")
    return LoggedKernel(name, None, num_items, cycles_per_item, traffic_elements)


class SweepLog:
    """A host loop's sweeps, logged as they run and timed in one pass.

    No host loop branches on simulated cycles, so a sweep only logs what
    it launched: :meth:`sweep` opens the sweep's record and
    :meth:`vertices` / :meth:`uniform` log its kernels. :meth:`finish`
    times every logged kernel with one :meth:`GPUExecutor.time_kernels`
    call, then builds the :class:`~repro.coloring.base.IterationRecord`
    list and the total with the float additions, in the order, of
    timing each sweep as it ran. Without an executor nothing is timed
    and no degrees are kept.
    """

    def __init__(self, executor: GPUExecutor | None) -> None:
        self.executor = executor
        self.kernels: list[LoggedKernel] = []
        self._sweeps: list[tuple[int, int, int, int]] = []
        self._gathered: tuple[object, object, np.ndarray | None] = (None, None, None)

    def sweep(self, index: int, active_vertices: int, newly_colored: int) -> None:
        """Open the record of one sweep; its kernels are logged next."""
        self._sweeps.append(
            (index, int(active_vertices), int(newly_colored), len(self.kernels))
        )

    def vertices(self, name: str, work: np.ndarray, ids: np.ndarray) -> None:
        """Log a vertex kernel over ``ids``; vertex ``v``'s work is ``work[v]``.

        Host loops log an assign and a detect kernel over one active set,
        by two calls in a row on the same ``work`` and ``ids`` arrays,
        unchanged in between: the second reuses the first one's gathered
        and validated degrees.
        """
        degrees = None
        if self.executor is not None:
            last_work, last_ids, degrees = self._gathered
            if work is not last_work or ids is not last_ids:
                degrees = as_degrees(work[ids])
                self._gathered = (work, ids, degrees)
        self.kernels.append(LoggedKernel(name, degrees))

    def uniform(
        self,
        name: str,
        num_items: int,
        cycles_per_item: float,
        *,
        traffic_elements: float = 0.0,
    ) -> None:
        """Log a uniform kernel (see :meth:`GPUExecutor.time_uniform`)."""
        self.kernels.append(
            uniform_kernel(name, num_items, cycles_per_item, traffic_elements)
        )

    def finish(self) -> tuple[list[IterationRecord], float]:
        """Time the log; returns the sweeps' records and their total cycles."""
        timings = (
            self.executor.time_kernels(self.kernels)
            if self.executor is not None
            else None
        )
        starts = [s[3] for s in self._sweeps]
        ends = [*starts[1:], len(self.kernels)] if starts else []
        records: list[IterationRecord] = []
        total = 0.0
        for (index, active, newly, lo), hi in zip(self._sweeps, ends, strict=True):
            cycles: float = 0.0
            eff = None
            if timings is not None:
                first, *rest = timings[lo:hi]
                cycles, eff = first.cycles, first.simd_efficiency
                for t in rest:
                    cycles = cycles + t.cycles
                total += cycles
            records.append(
                IterationRecord(
                    index=index,
                    active_vertices=active,
                    newly_colored=newly,
                    cycles=cycles,
                    simd_efficiency=eff,
                    kernels=tuple(k.name for k in self.kernels[lo:hi]),
                )
            )
        return records, total


def _windows(kernels: Sequence[LoggedKernel]) -> Iterator[list[LoggedKernel]]:
    """Consecutive runs of kernels of at most ``_WINDOW_ITEMS`` items
    (a bigger kernel is a window of its own)."""
    window: list[LoggedKernel] = []
    items = 0
    for k in kernels:
        if window and items + k.items > _WINDOW_ITEMS:
            yield window
            window, items = [], 0
        window.append(k)
        items += k.items
    if window:
        yield window


def _workgroup_costs(
    tasks: np.ndarray, sizes: np.ndarray, per_group: int, simd_per_cu: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.gpusim.scheduler.workgroup_costs` of every segment.

    Returns ``(costs, workgroups per segment)``; no workgroup straddles
    two segments. Groups that fit the CU's pipes cost their slowest
    task; larger ones pack each segment's tasks, zero-padded to whole
    groups as :func:`workgroup_costs` pads them.
    """
    if per_group <= simd_per_cu:
        return segmented_wavefront_costs(tasks, sizes, per_group)
    groups = -(-sizes // per_group)
    shift = np.cumsum(sizes) - sizes - (np.cumsum(groups) - groups) * per_group
    padded = np.zeros(int(groups.sum()) * per_group)
    padded[np.arange(tasks.size) - np.repeat(shift, sizes)] = tasks
    return workgroup_costs(padded, per_group, simd_per_cu), groups


class GPUExecutor:
    """Times coloring-iteration kernels under a mapping × schedule.

    One executor instance is reused across all iterations of a run. It
    is bound to a :class:`~repro.engine.context.RunContext`, which owns
    the device and memory model it times on and the run-level counters
    that aggregate across every executor in the context. Build one with
    :meth:`RunContext.executor <repro.engine.context.RunContext.executor>`.

    Host loops log their sweeps in a :class:`SweepLog` and time the
    whole log with :meth:`time_kernels`; :meth:`time_iteration` and
    :meth:`time_uniform` are its one-kernel case.
    """

    def __init__(self, context: RunContext, config: ExecutionConfig | None = None) -> None:
        self.context = context
        self.device = context.device
        self.memory = context.memory
        self.config = config or ExecutionConfig()
        self.costs = CostModel(self.device, self.memory)
        #: run-level profiling accumulated across every timed iteration;
        #: call ``counters.reset()`` to start a new measurement window.
        self.counters = ExecutionCounters()
        if self.config.workgroup_size % self.device.wavefront_size:
            raise ValueError(
                "workgroup_size must be a multiple of the device wavefront size"
            )
        if self.config.workgroup_size > self.device.max_workgroup_size:
            raise ValueError("workgroup_size exceeds device limit")

    # ------------------------------------------------------------------

    def plan_for(self, degrees: np.ndarray) -> ExecutionPlan:
        """The execution plan for one active-degree array."""
        return build_plan(degrees, self.config, self.costs, self.device)

    def time_iteration(
        self, active_degrees: np.ndarray, *, name: str = "kernel"
    ) -> IterationTiming:
        """Simulated cycles to run one iteration over the active set.

        ``active_degrees`` are the degrees of this round's active
        vertices, in thread-id order (the engine may re-order them when
        ``sort_by_degree`` is set — legal because an iteration kernel is
        order-independent within the round). They must be non-negative
        integers (integer-valued floats are accepted).
        """
        return self.time_kernels([LoggedKernel(name, as_degrees(active_degrees))])[0]

    def time_uniform(
        self,
        num_items: int,
        cycles_per_item: float,
        *,
        traffic_elements: float = 0.0,
        name: str = "uniform",
    ) -> IterationTiming:
        """Time a kernel of ``num_items`` identical work items.

        The edge-centric kernels use this: uniform items never diverge,
        so the only costs are raw throughput, the DRAM roofline, and the
        launch. Uniform work gains nothing from work stealing, so every
        schedule is timed as a plain grid launch.
        """
        kernel = uniform_kernel(name, num_items, cycles_per_item, traffic_elements)
        return self.time_kernels([kernel])[0]

    def time_kernels(self, kernels: Sequence[LoggedKernel]) -> list[IterationTiming]:
        """Time logged kernels in one pass, exactly as one call each would.

        Returns one :class:`IterationTiming` per kernel. Counters and
        trace events see the kernels one at a time, in order. The pass
        works in windows of a bounded item count: per window, the plans
        of every vertex kernel come from one segmented
        :func:`~repro.engine.plan.build_plans` pass, and grid launches
        get their wavefront and workgroup costs from one segmented
        reduction each. The scheduler, the persistent-schedule
        simulators and the sinks then run kernel by kernel.
        """
        out: list[IterationTiming] = []
        for window in _windows(kernels):
            out.extend(self._time_window(window))
        return out

    def _time_window(self, kernels: list[LoggedKernel]) -> list[IterationTiming]:
        vertex = [k.degrees is not None and k.items > 0 for k in kernels]
        found = iter(
            build_plans(
                [k.degrees for k, v in zip(kernels, vertex, strict=True) if v],
                self.config,
                self.costs,
                self.device,
            )
        )
        plans = [next(found) if v else None for v in vertex]
        grid = self._grid_launches(kernels, plans)
        out: list[IterationTiming] = []
        for i, (k, plan) in enumerate(zip(kernels, plans, strict=True)):
            if not k.items:
                out.append(IterationTiming(cycles=0.0, simd_efficiency=1.0))
                continue
            if i in grid:
                kname, eff, wg_cycles, traffic = grid[i]
                timing = self._grid_timing(kname, eff, wg_cycles, traffic)
            else:
                timing = self._persistent(plan, k.name)
                traffic = plan.traffic_elements
            self._observe(timing, traffic_elements=traffic, work_items=k.items)
            out.append(timing)
        return out

    # -- profiling sinks ------------------------------------------------

    def _observe(
        self, timing: IterationTiming, *, traffic_elements: float, work_items: int
    ) -> None:
        """Report one timed kernel to the per-run and run-level sinks."""
        sinks = [self.counters]
        if self.context.counters is not self.counters:
            sinks.append(self.context.counters)
        for sink in sinks:
            sink.observe_kernel(
                cycles=timing.cycles,
                launch_cycles=self.device.launch_cycles,
                bandwidth_bound=timing.bandwidth_bound,
                traffic_elements=traffic_elements,
                work_items=work_items,
                simd_efficiency=timing.simd_efficiency,
            )
            if timing.stealing is not None:
                sink.observe_stealing(
                    attempts=timing.stealing.steal_attempts,
                    succeeded=timing.stealing.steals_succeeded,
                    migrated=timing.stealing.chunks_migrated,
                )
        tracer = self.context.tracer
        if tracer is not None:
            args: dict[str, object] = {
                "simd_efficiency": timing.simd_efficiency,
                "bandwidth_bound": timing.bandwidth_bound,
                "work_items": work_items,
                "traffic_elements": traffic_elements,
                "launch_cycles": self.device.launch_cycles,
                "mapping": self.config.mapping,
                "schedule": self.config.schedule,
            }
            if timing.stealing is not None:
                args["steal_attempts"] = timing.stealing.steal_attempts
                args["steals_succeeded"] = timing.stealing.steals_succeeded
                args["chunks_migrated"] = timing.stealing.chunks_migrated
            tracer.kernel(
                timing.kernels[0] if timing.kernels else "kernel",
                cycles=timing.cycles,
                **args,
            )

    # -- grid launches --------------------------------------------------

    def _grid_launches(
        self, kernels: list[LoggedKernel], plans: list[ExecutionPlan | None]
    ) -> dict[int, tuple[str, float, np.ndarray, float]]:
        """Workgroup costs of every grid launch of a window.

        Vertex kernels under the grid schedule and every uniform kernel
        are ordinary launches. Their workgroup costs come from segmented
        reductions over the window, as :func:`~repro.gpusim.scheduler.dispatch`
        (thread mapping, lanes → wavefronts → workgroups; it refuses
        workgroups of partial wavefronts) and
        :func:`~repro.gpusim.scheduler.dispatch_tasks` (wavefront tasks →
        workgroups) derive them one launch at a time. Returns, per
        kernel position, ``(kernel name, SIMD efficiency, workgroup
        cycles, traffic elements)``.
        """
        cfg, dev = self.config, self.device
        width = dev.wavefront_size
        wf_per_group = cfg.workgroup_size // width
        grid_schedule = cfg.schedule == "grid"
        lanes, coop, uniform = [], [], []
        for i, (k, plan) in enumerate(zip(kernels, plans, strict=True)):
            if plan is not None and grid_schedule:
                (lanes if plan.item_cycles is not None else coop).append(i)
            elif k.degrees is None and k.num_items:
                uniform.append(i)
        out: dict[int, tuple[str, float, np.ndarray, float]] = {}
        if lanes:
            if cfg.workgroup_size % width:
                raise ValueError(
                    f"workgroup_size {cfg.workgroup_size} must be a multiple of "
                    f"wavefront_size {width}"
                )
            items = [plans[i].item_cycles for i in lanes]
            sizes = np.array([c.size for c in items], dtype=np.int64)
            flat = np.concatenate(items)
            peaks, n_wf = segmented_wavefront_costs(flat, sizes, width)
            wg, n_wg = _workgroup_costs(peaks, n_wf, wf_per_group, dev.simd_per_cu)
            for i, c, pk, g in zip(
                lanes, items, _split(peaks, n_wf), _split(wg, n_wg), strict=True
            ):
                eff = simd_efficiency(c, width, pk)
                out[i] = (kernels[i].name, eff, g, plans[i].traffic_elements)
        if coop:
            tasks = [plans[i].tasks for i in coop]
            sizes = np.array([t.size for t in tasks], dtype=np.int64)
            wg, n_wg = _workgroup_costs(
                np.concatenate(tasks), sizes, dev.simd_per_cu, dev.simd_per_cu
            )
            for i, g in zip(coop, _split(wg, n_wg), strict=True):
                plan = plans[i]
                name = kernels[i].name + plan.kernel_suffix
                out[i] = (name, plan.simd_efficiency, g, plan.traffic_elements)
        if uniform:
            n_wf = np.array(
                [num_wavefronts(kernels[i].num_items, width) for i in uniform],
                dtype=np.int64,
            )
            per_item = np.array([kernels[i].cycles_per_item for i in uniform])
            wg, n_wg = _workgroup_costs(
                np.repeat(per_item, n_wf),
                n_wf,
                wf_per_group or dev.simd_per_cu,
                dev.simd_per_cu,
            )
            for i, n, g in zip(uniform, n_wf.tolist(), _split(wg, n_wg), strict=True):
                k = kernels[i]
                # only the trailing partial wavefront idles lanes
                out[i] = (k.name, k.num_items / (n * width), g, k.traffic_elements)
        return out

    def _grid_timing(
        self, name: str, eff: float, wg_cycles: np.ndarray, traffic: float
    ) -> IterationTiming:
        """One grid launch's timing from its workgroup costs."""
        res = dispatch_workgroups(
            name,
            wg_cycles,
            self.device,
            self.memory,
            traffic_elements=traffic,
            tracer=self.context.tracer,
        )
        return IterationTiming(
            cycles=res.total_cycles,
            simd_efficiency=eff,
            kernels=(name,),
            cu_busy=res.cu_busy,
            bandwidth_bound=res.is_bandwidth_bound,
        )

    # -- persistent schedules -------------------------------------------

    @functools.cached_property
    def _stealing(self) -> StealingConfig:
        """The stealing schedule's runtime config, ``config.stealing`` or one
        from the device's overheads, with a worker per persistent workgroup;
        derived, and validated, once per executor."""
        cfg, dev = self.config, self.device
        workers = dev.num_cus * cfg.persistent_groups_per_cu
        steal_cfg = cfg.stealing or StealingConfig(
            num_workers=workers,
            steal_cycles=dev.steal_attempt_cycles,
            pop_cycles=dev.atomic_cycles / 8.0,
        )
        if steal_cfg.num_workers != workers:
            steal_cfg = replace(steal_cfg, num_workers=workers)
        return steal_cfg

    def _persistent(self, plan: ExecutionPlan, name: str) -> IterationTiming:
        cfg, dev = self.config, self.device
        chunk_cyc = plan.chunk_cycles
        workers = dev.num_cus * cfg.persistent_groups_per_cu
        launch = dev.launch_cycles
        if cfg.schedule == "static":  # from the contiguous slabs
            res = simulate_static_persistent(
                chunk_cyc, None, workers, pop_cycles=dev.atomic_cycles / 8.0
            )
        elif cfg.schedule == "dynamic":
            res = simulate_dynamic_fetch(
                chunk_cyc, workers, atomic_cycles=dev.atomic_cycles
            )
        else:  # stealing, from the contiguous slabs
            res = simulate_work_stealing(
                chunk_cyc, None, self._stealing, tracer=self.context.tracer
            )
        # Roofline still applies: the chunks move the same bytes.
        bw = self.memory.bandwidth_floor_cycles(plan.traffic_elements)
        cycles = launch + max(res.makespan_cycles, bw)
        tracer = self.context.tracer
        if tracer is not None:
            # persistent-schedule analogue of the dispatcher's summary:
            # how evenly the chunk runtime occupied the workers.
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
            cycles=cycles,
            simd_efficiency=plan.simd_efficiency,
            kernels=(name,),
            stealing=res,
            cu_busy=res.busy_cycles,
            bandwidth_bound=bw > res.makespan_cycles,
        )
