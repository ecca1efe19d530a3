"""Hardware-style dispatch — two-level greedy scheduling.

Real GCN hardware dispatches *workgroups* to compute units as CUs free
up, in launch order; within a CU, the workgroup's wavefronts spread over
the CU's SIMD pipes. That two-level structure is the model here:

1. per-item costs → lockstep wavefront costs (``max`` over lanes);
2. consecutive wavefronts form a workgroup; the workgroup's cost is the
   makespan of packing its wavefronts greedily (in order) onto
   ``simd_per_cu`` pipes — when a 256-thread workgroup has exactly 4
   wavefronts on a 4-SIMD CU this is just their max;
3. workgroup costs are greedily list-scheduled onto the CUs.

Greedy dispatch load-balances at *workgroup* granularity — it cannot fix
intra-wavefront divergence (a single monster lane still stalls its 63
siblings, which is what the hybrid mapping attacks), and it still leaves
an idle tail when late workgroups are heavy (which is what work stealing
at finer chunk granularity attacks).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from .device import DeviceConfig
from .kernel import KernelResult, KernelSpec
from .memory import MemoryModel
from .wavefront import DivergenceStats, divergence_stats, wavefront_costs

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "greedy_schedule",
    "workgroup_costs",
    "dispatch",
    "dispatch_tasks",
    "dispatch_workgroups",
]


# Equal-cost runs shorter than this are cheaper to step through the
# Python heap than to set up a numpy candidate ladder for.
_RUN_MIN = 16


def greedy_schedule(task_cycles: np.ndarray, num_pipes: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy earliest-available list scheduling, in task order.

    Returns ``(assignment, pipe_busy)`` where ``assignment[i]`` is the
    pipe task ``i`` ran on and ``pipe_busy[p]`` the total busy cycles of
    pipe ``p``. Makespan is ``pipe_busy.max()`` because greedy dispatch
    leaves no holes (each pipe runs its tasks back-to-back).

    The schedule is computed by a batched implementation that exploits
    input structure (single pipe, short task lists, equal-cost runs —
    the common case for workgroup costs, which come from integer cycle
    counts and are frequently tied).  It is bit-identical to the
    reference per-task heap loop (:func:`_greedy_schedule_reference`),
    including ``(time, pipe)`` tie-breaking and float accumulation
    order.
    """
    costs = np.asarray(task_cycles, dtype=np.float64).ravel()
    if num_pipes <= 0:
        raise ValueError("num_pipes must be positive")
    n = costs.size
    if n:
        if not np.all(np.isfinite(costs)):
            raise ValueError(
                "task costs must be finite (NaN/inf would silently corrupt "
                "the scheduler's heap ordering)"
            )
        if costs.min() < 0:
            raise ValueError("task costs must be non-negative")
    assignment = np.empty(n, dtype=np.int64)
    busy = np.zeros(num_pipes, dtype=np.float64)
    if n:
        _schedule_into(costs, num_pipes, assignment)
        np.add.at(busy, assignment, costs)
    return assignment, busy


def _greedy_schedule_reference(
    task_cycles: np.ndarray, num_pipes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference per-task heap loop (the original implementation).

    Kept as the equivalence oracle for the vectorized scheduler: the
    property tests assert :func:`greedy_schedule` matches this exactly
    (assignments and busy arrays).
    """
    costs = np.asarray(task_cycles, dtype=np.float64).ravel()
    if num_pipes <= 0:
        raise ValueError("num_pipes must be positive")
    if costs.size and costs.min() < 0:
        raise ValueError("task costs must be non-negative")
    assignment = np.empty(costs.size, dtype=np.int64)
    busy = np.zeros(num_pipes, dtype=np.float64)
    # (available_time, pipe) heap; pipe index tie-breaks deterministically.
    heap: list[tuple[float, int]] = [(0.0, p) for p in range(num_pipes)]
    heapq.heapify(heap)
    for i, cost in enumerate(costs):
        start, pipe = heapq.heappop(heap)
        assignment[i] = pipe
        busy[pipe] += cost
        heapq.heappush(heap, (start + cost, pipe))
    return assignment, busy


def _schedule_scalar(costs: np.ndarray, num_pipes: int, assignment: np.ndarray) -> None:
    """Optimized scalar fallback: one heap loop over plain Python floats."""
    clist = costs.tolist()
    heap: list[tuple[float, int]] = [(0.0, p) for p in range(num_pipes)]
    pop, push = heapq.heappop, heapq.heappush
    out_p = [0] * len(clist)
    for i, c in enumerate(clist):
        t, p = pop(heap)
        out_p[i] = p
        push(heap, (t + c, p))
    assignment[:] = out_p


def _schedule_into(costs: np.ndarray, num_pipes: int, assignment: np.ndarray) -> None:
    """Fill ``assignment`` exactly as the reference heap would.

    Strategy, in order of preference:

    - single pipe → every task on pipe 0;
    - no more tasks than pipes (all costs positive) → task ``i`` on pipe
      ``i``;
    - all costs equal and positive → round-robin;
    - otherwise decompose into equal-cost runs: long runs merge the
      pipes' arithmetic start-time progressions with a stable argsort
      (ties resolve to the lowest pipe, matching the heap's
      ``(time, pipe)`` order); short runs step a conventional heap, in
      contiguous segments so mostly-distinct inputs pay one optimized
      scalar pass instead of per-run setup.
    """
    n = costs.size
    P = num_pipes
    if P == 1:
        assignment[:] = 0
        return
    if n <= P:
        # With positive costs the first n pops are the n distinct idle
        # pipes.  Zero costs re-expose a popped pipe at the same lexical
        # rank, so they fall through to the general path.
        if costs.min() > 0.0:
            assignment[:] = np.arange(n)
            return
    else:
        c0 = costs[0]
        if c0 > 0.0 and not np.any(costs != c0):
            assignment[:] = np.arange(n, dtype=np.int64) % P
            return
    bounds = np.flatnonzero(np.diff(costs) != 0) + 1
    num_runs = bounds.size + 1
    if num_runs * _RUN_MIN > n:
        # Mean run length below the vectorization threshold: the run
        # machinery would mostly hit its scalar branch anyway.
        _schedule_scalar(costs, P, assignment)
        return
    run_starts = np.concatenate(([0], bounds)).tolist()
    run_ends = np.concatenate((bounds, [n])).tolist()
    pop, push = heapq.heappop, heapq.heappush
    avail = np.zeros(P, dtype=np.float64)
    heap: list[tuple[float, int]] | None = None
    clist: list[float] | None = None
    i = 0
    while i < num_runs:
        rs = run_starts[i]
        re = run_ends[i]
        if re - rs < _RUN_MIN:
            # Merge the contiguous stretch of short runs into one
            # scalar heap segment.
            j = i + 1
            while j < num_runs and run_ends[j] - run_starts[j] < _RUN_MIN:
                j += 1
            seg_end = run_ends[j - 1]
            if heap is None:
                heap = list(zip(avail.tolist(), range(P), strict=True))
                heapq.heapify(heap)
            if clist is None:
                clist = costs.tolist()
            out_p = [0] * (seg_end - rs)
            for k, cost in enumerate(clist[rs:seg_end]):
                t, p = pop(heap)
                out_p[k] = p
                push(heap, (t + cost, p))
            assignment[rs:seg_end] = out_p
            i = j
            continue
        if heap is not None:
            for t, p in heap:
                avail[p] = t
            heap = None
        R = re - rs
        c = float(costs[rs])
        if c == 0.0:
            # Zero-cost tasks re-insert (t, p) unchanged, so the heap
            # pops the same lexically-minimal pipe for the whole run.
            assignment[rs:re] = int(np.argmin(avail))
            i += 1
            continue
        amax = float(avail.max())
        amin = float(avail.min())
        # Candidate-count bound: slots available by time amax, plus the
        # full rounds needed to cover any remainder of the run.  A pipe
        # can take at most R tasks from this run, so R + 1 rungs per
        # ladder always suffice — that cap keeps the ladder bounded when
        # c is tiny relative to the avail spread (the uncapped bound is
        # ~(amax - amin)/c, which overflows for epsilon-sized costs).
        cap = R + 1
        with np.errstate(over="ignore"):
            # denormal c overflows the quotients to inf — which reads
            # correctly as "more slots than the run could ever need"
            c1 = np.floor((amax - avail) / c).sum() + P
            extra = 0 if c1 >= R else -((int(c1) - R) // P)
            kmaxf = np.floor((amax + extra * c - amin) / c) + 2
        kmax = int(kmaxf) if kmaxf < cap else cap
        while True:
            # Row p holds the exact sequential start times avail[p],
            # avail[p]+c, ... — np.add.accumulate is a left fold, so the
            # floats match repeated ``start + cost`` exactly.
            mat = np.full((P, kmax + 1), c, dtype=np.float64)
            mat[:, 0] = avail
            np.add.accumulate(mat, axis=1, out=mat)
            cand = mat[:, :-1].ravel()
            order = np.argsort(cand, kind="stable")[:R]
            sel_p = order // kmax
            counts = np.bincount(sel_p, minlength=P)
            if counts.max() < kmax:
                # Every pipe kept at least one unselected candidate, so
                # the selection threshold lies inside every ladder and
                # the R smallest candidates are exact.
                break
            # counts.max() <= R < cap, so the loop terminates at cap.
            kmax = min(kmax * 2, cap)
        assignment[rs:re] = sel_p
        avail = mat[np.arange(P), counts]
        i += 1


def workgroup_costs(
    wavefront_cycles: np.ndarray, wf_per_group: int, simd_per_cu: int
) -> np.ndarray:
    """Cost of each workgroup: its wavefronts packed onto the CU's pipes.

    Consecutive groups of ``wf_per_group`` wavefronts form a workgroup.
    With ``wf_per_group <= simd_per_cu`` every wavefront has its own
    pipe, so the group costs its slowest wavefront. Larger groups pack
    greedily in order (vectorized across groups, looping only over the
    within-group position).
    """
    if wf_per_group <= 0 or simd_per_cu <= 0:
        raise ValueError("group and pipe counts must be positive")
    wf = np.asarray(wavefront_cycles, dtype=np.float64).ravel()
    if wf.size == 0:
        return np.empty(0, dtype=np.float64)
    num_groups = -(-wf.size // wf_per_group)
    padded = np.zeros(num_groups * wf_per_group, dtype=np.float64)
    padded[: wf.size] = wf
    grid = padded.reshape(num_groups, wf_per_group)
    if wf_per_group <= simd_per_cu:
        return grid.max(axis=1)
    pipes = np.zeros((num_groups, simd_per_cu), dtype=np.float64)
    for col in range(wf_per_group):
        idx = np.argmin(pipes, axis=1)
        pipes[np.arange(num_groups), idx] += grid[:, col]
    return pipes.max(axis=1)


def dispatch(
    spec: KernelSpec,
    device: DeviceConfig,
    memory: MemoryModel | None = None,
    *,
    tracer: "Tracer | None" = None,
) -> KernelResult:
    """Simulate one thread-mapped kernel launch on ``device``.

    Pipeline: per-item costs → lockstep wavefront costs → workgroup
    costs → greedy workgroup dispatch onto the CUs → makespan, compared
    against the DRAM roofline, plus the fixed launch overhead.
    """
    if spec.workgroup_size % device.wavefront_size:
        raise ValueError(
            f"workgroup_size {spec.workgroup_size} must be a multiple of "
            f"wavefront_size {device.wavefront_size}"
        )
    wf = wavefront_costs(spec.item_cycles, device.wavefront_size)
    wf_per_group = spec.workgroup_size // device.wavefront_size
    wg = workgroup_costs(wf, wf_per_group, device.simd_per_cu)
    return dispatch_workgroups(
        spec.name,
        wg,
        device,
        memory,
        traffic_elements=spec.traffic_elements,
        divergence=divergence_stats(spec.item_cycles, device.wavefront_size),
        tracer=tracer,
    )


def dispatch_tasks(
    name: str,
    task_cycles: np.ndarray,
    device: DeviceConfig,
    memory: MemoryModel | None = None,
    *,
    tasks_per_group: int | None = None,
    traffic_elements: float = 0.0,
    tracer: "Tracer | None" = None,
) -> KernelResult:
    """Dispatch pre-aggregated *wavefront tasks* (cooperative kernels).

    ``task_cycles[i]`` is the cost of one whole-wavefront task (e.g. one
    high-degree vertex processed cooperatively). Tasks group into
    workgroups of ``tasks_per_group`` (default: one per SIMD pipe) and
    dispatch exactly like :func:`dispatch`. Lane-level divergence stats
    are not derivable from task costs, so the result has none.
    """
    tasks = np.asarray(task_cycles, dtype=np.float64).ravel()
    group = tasks_per_group or device.simd_per_cu
    wg = workgroup_costs(tasks, group, device.simd_per_cu)
    return dispatch_workgroups(
        name,
        wg,
        device,
        memory,
        traffic_elements=traffic_elements,
        tracer=tracer,
    )


def dispatch_workgroups(
    name: str,
    wg_cycles: np.ndarray,
    device: DeviceConfig,
    memory: MemoryModel | None = None,
    *,
    traffic_elements: float = 0.0,
    divergence: DivergenceStats | None = None,
    tracer: "Tracer | None" = None,
) -> KernelResult:
    """Dispatch one launch's workgroups, given their costs, onto the CUs.

    The last step of :func:`dispatch` and :func:`dispatch_tasks`: greedy
    workgroup placement gives the compute makespan, which is compared
    against the DRAM roofline of ``traffic_elements``, plus the fixed
    launch overhead.
    """
    memory = memory or MemoryModel(device)
    _, busy = greedy_schedule(wg_cycles, device.num_cus)
    compute = float(busy.max()) if busy.size else 0.0
    bandwidth = (
        memory.bandwidth_floor_cycles(traffic_elements) if traffic_elements else 0.0
    )
    if tracer is not None:
        # one wavefront-scheduling summary per dispatch: how the greedy
        # workgroup placement occupied the CUs for this launch.
        util = (
            float(busy.sum() / (device.num_cus * compute)) if compute > 0 else 1.0
        )
        tracer.sim_instant(
            f"{name}:dispatch",
            cat="sched",
            at=0.0,
            workgroups=int(wg_cycles.size),
            cus=device.num_cus,
            cu_utilization=util,
            compute_cycles=compute,
            bandwidth_cycles=bandwidth,
            bandwidth_bound=bandwidth > compute,
        )
    return KernelResult(
        name=name,
        device=device,
        compute_cycles=compute,
        bandwidth_cycles=bandwidth,
        launch_cycles=device.launch_cycles,
        workgroup_cycles=wg_cycles,
        cu_busy=busy,
        divergence=divergence,
    )

