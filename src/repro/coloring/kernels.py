"""Kernel cost model + the engine adapters for coloring iterations.

This module is the bridge between the *algorithms* (which operate on
real graph data and produce real colorings) and the *simulator* (which
charges time). Each iteration of an iterative coloring algorithm hands
the engine its active vertex set; the engine looks up (or builds) the
corresponding :class:`~repro.engine.plan.ExecutionPlan` under a chosen
**mapping** and **schedule** and returns the simulated cycles.

The work-distribution derivations themselves live in
:mod:`repro.engine.plan` (memoized per graph × configuration), and the
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

from dataclasses import dataclass, field, replace

import numpy as np

from ..engine.context import RunContext
from ..engine.plan import ExecutionPlan, build_plan, degrees_fingerprint
from ..gpusim.counters import ExecutionCounters
from ..gpusim.device import DeviceConfig
from ..gpusim.kernel import KernelSpec
from ..gpusim.memory import MemoryModel
from ..gpusim.scheduler import dispatch, dispatch_tasks
from ..loadbalance.dynamic import simulate_dynamic_fetch
from ..loadbalance.workstealing import (
    StealingConfig,
    StealingResult,
    simulate_static_persistent,
    simulate_work_stealing,
)

__all__ = [
    "MAPPINGS",
    "SCHEDULES",
    "CostModel",
    "ExecutionConfig",
    "IterationTiming",
    "GPUExecutor",
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
        return fixed + d * per_nbr

    def coop_vertex_cycles(self, degrees: np.ndarray, lanes: int | None = None) -> np.ndarray:
        """Cost of one vertex processed cooperatively by ``lanes`` lanes.

        ``ceil(d / lanes)`` lockstep strides, each paying streamed reads
        and ALU for one element per lane, plus two log-depth reductions
        (max and min — the max-min kernel needs both; single-reduction
        algorithms overpay by a few cycles, below model noise).
        """
        lanes = lanes or self.device.wavefront_size
        d = np.asarray(degrees, dtype=np.float64)
        steps = np.ceil(d / lanes)
        per_step = (
            self.reads_per_neighbor * self.memory.streamed_element_cycles
            + self.alu_per_neighbor * self.device.alu_cycles
        )
        fixed = (
            self.fixed_reads * self.memory.scattered_element_cycles
            + self.fixed_alu * self.device.alu_cycles
            + 2.0 * np.log2(lanes) * self.device.reduce_step_cycles
        )
        return fixed + steps * per_step

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


class GPUExecutor:
    """Times coloring-iteration kernels under a mapping × schedule.

    One executor instance is reused across all iterations of a run; it
    is bound to a :class:`~repro.engine.context.RunContext` (built on
    the fly for the legacy ``GPUExecutor(device, config, memory)`` call
    form) whose plan cache memoizes work distributions and whose
    run-level counters aggregate across every executor in the context.
    """

    def __init__(
        self,
        device: DeviceConfig | None = None,
        config: ExecutionConfig | None = None,
        memory: MemoryModel | None = None,
        *,
        context: RunContext | None = None,
    ) -> None:
        if context is None:
            context = RunContext(
                device=device if device is not None else DeviceConfig(),
                memory=memory,
            )
        self.context = context
        self.device = device if device is not None else context.device
        self.memory = memory if memory is not None else context.memory
        self.config = config or ExecutionConfig()
        self.costs = CostModel(self.device, self.memory)
        self.plans = context.plans
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
        """The (cached) execution plan for one active-degree array."""
        key = (degrees_fingerprint(degrees), self.config, self.costs)
        return self.plans.get_or_build(
            key, lambda: build_plan(degrees, self.config, self.costs, self.device)
        )

    def time_iteration(
        self, active_degrees: np.ndarray, *, name: str = "kernel"
    ) -> IterationTiming:
        """Simulated cycles to run one iteration over the active set.

        ``active_degrees`` are the degrees of this round's active
        vertices, in thread-id order (the engine may re-order them when
        ``sort_by_degree`` is set — legal because an iteration kernel is
        order-independent within the round).
        """
        deg = np.asarray(active_degrees, dtype=np.int64).ravel()
        if deg.size == 0:
            return IterationTiming(cycles=0.0, simd_efficiency=1.0)
        if deg.min() < 0:
            raise ValueError("degrees must be non-negative")
        plan = self.plan_for(deg)
        timing = (
            self._grid(plan, name)
            if self.config.schedule == "grid"
            else self._persistent(plan, name)
        )
        self._observe(timing, traffic_elements=plan.traffic_elements, work_items=deg.size)
        return timing

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
        if num_items < 0:
            raise ValueError("num_items must be non-negative")
        if cycles_per_item < 0:
            raise ValueError("cycles_per_item must be non-negative")
        if num_items == 0:
            return IterationTiming(cycles=0.0, simd_efficiency=1.0)
        dev = self.device
        from ..gpusim.wavefront import num_wavefronts

        n_wf = num_wavefronts(num_items, dev.wavefront_size)
        tasks = np.full(n_wf, cycles_per_item, dtype=np.float64)
        wf_per_group = self.config.workgroup_size // dev.wavefront_size
        res = dispatch_tasks(
            name,
            tasks,
            dev,
            self.memory,
            tasks_per_group=wf_per_group,
            traffic_elements=traffic_elements,
            tracer=self.context.tracer,
        )
        # only the trailing partial wavefront idles lanes
        eff = num_items / (n_wf * dev.wavefront_size)
        timing = IterationTiming(
            cycles=res.total_cycles,
            simd_efficiency=eff,
            kernels=(name,),
            cu_busy=res.cu_busy,
            bandwidth_bound=res.is_bandwidth_bound,
        )
        self._observe(timing, traffic_elements=traffic_elements, work_items=num_items)
        return timing

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

    # -- grid schedule --------------------------------------------------

    def _grid(self, plan: ExecutionPlan, name: str) -> IterationTiming:
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
        # wavefront mapping dispatches cooperative tasks directly; the
        # hybrid mapping fuses packed low-degree wavefronts (divergence
        # from the plan) with cooperative high-degree tasks.
        kname = name + plan.kernel_suffix
        res = dispatch_tasks(
            kname,
            plan.tasks,
            dev,
            self.memory,
            traffic_elements=plan.traffic_elements,
            divergence=plan.divergence,
            tracer=self.context.tracer,
        )
        return IterationTiming(
            cycles=res.total_cycles,
            simd_efficiency=plan.simd_efficiency,
            kernels=(kname,),
            cu_busy=res.cu_busy,
            bandwidth_bound=res.is_bandwidth_bound,
        )

    # -- persistent schedules -------------------------------------------

    def _persistent(self, plan: ExecutionPlan, name: str) -> IterationTiming:
        cfg, dev = self.config, self.device
        chunk_cyc = plan.chunk_cycles
        workers = dev.num_cus * cfg.persistent_groups_per_cu
        launch = dev.launch_cycles
        if cfg.schedule == "static":
            owner = self._static_owner(chunk_cyc.size, workers)
            res = simulate_static_persistent(
                chunk_cyc, owner, workers, pop_cycles=dev.atomic_cycles / 8.0
            )
        elif cfg.schedule == "dynamic":
            res = simulate_dynamic_fetch(
                chunk_cyc, workers, atomic_cycles=dev.atomic_cycles
            )
        else:  # stealing
            owner = self._static_owner(chunk_cyc.size, workers)
            steal_cfg = cfg.stealing or StealingConfig(
                num_workers=workers,
                steal_cycles=dev.steal_attempt_cycles,
                pop_cycles=dev.atomic_cycles / 8.0,
            )
            if steal_cfg.num_workers != workers:
                steal_cfg = replace(steal_cfg, num_workers=workers)
            res = simulate_work_stealing(
                chunk_cyc, owner, steal_cfg, tracer=self.context.tracer
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

    @staticmethod
    def _static_owner(num_chunks: int, workers: int) -> np.ndarray:
        """Contiguous-slab initial ownership (the OpenCL baseline)."""
        if num_chunks == 0:
            return np.empty(0, dtype=np.int64)
        per = -(-num_chunks // workers)
        return np.arange(num_chunks, dtype=np.int64) // per
