"""Work-stealing runtime — persistent workgroups with chunk deques.

This is the paper's first load-imbalance technique. The GPU realization
(task queues in global memory, one deque per persistent workgroup,
steals via atomic CAS on the queue ends) is simulated as follows:

* Each worker (persistent workgroup) starts with a deque of *chunks*
  (contiguous vertex ranges) from a static partition.
* A free worker pops from its own deque bottom (cheap atomic), else
  picks a victim — uniformly at random or the currently richest — and
  steals the top *half* of the victim's deque, paying
  ``steal_cycles`` per attempt whether or not it succeeds.
* A worker retires when every deque is empty.

Steals are rare next to local pops, so the simulation runs in two
phases. Until some worker first finds its own deque empty, every event
is an independent pop; those are applied in bulk with NumPy. The rest
runs one event at a time in a heap loop. Events at equal times fire in
scheduling order and the victim RNG is seeded, so every run is exactly
reproducible.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..gpusim.trace import Timeline

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "StealingConfig",
    "StealingResult",
    "simulate_work_stealing",
    "simulate_static_persistent",
]


def as_chunk_costs(chunk_cycles: np.ndarray) -> np.ndarray:
    """``chunk_cycles`` as a flat float64 array of finite, non-negative costs."""
    costs = np.asarray(chunk_cycles, dtype=np.float64).ravel()
    if costs.size and not (np.isfinite(costs).all() and costs.min() >= 0):
        raise ValueError("chunk costs must be finite and non-negative")
    return costs


@dataclass(frozen=True)
class StealingConfig:
    """Tuning knobs of the work-stealing runtime.

    ``steal_policy`` is ``"random"`` (pick any other worker, may fail on
    an empty victim) or ``"richest"`` (scan for the fullest deque — more
    traffic per attempt on real hardware, modelled as the same
    ``steal_cycles`` but it never picks an empty victim while work
    exists).
    """

    num_workers: int
    steal_cycles: float = 400.0
    pop_cycles: float = 8.0
    steal_policy: str = "random"
    steal_fraction: float = 0.5
    max_failed_attempts: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.steal_policy not in ("random", "richest"):
            raise ValueError("steal_policy must be 'random' or 'richest'")
        if not 0.0 < self.steal_fraction <= 1.0:
            raise ValueError("steal_fraction must be in (0, 1]")
        if not all(
            math.isfinite(c) and c >= 0 for c in (self.steal_cycles, self.pop_cycles)
        ):
            raise ValueError("overhead cycles must be finite and non-negative")
        if self.max_failed_attempts < 1:
            raise ValueError("max_failed_attempts must be >= 1")


@dataclass
class StealingResult:
    """Outcome of one work-stealing (or static persistent) run."""

    makespan_cycles: float
    busy_cycles: np.ndarray  # useful chunk-execution cycles per worker
    overhead_cycles: np.ndarray  # pop + steal cycles per worker
    chunks_executed: np.ndarray  # chunks each worker ran
    steal_attempts: int
    steals_succeeded: int
    chunks_migrated: int
    timeline: Timeline | None = field(default=None, repr=False)

    @property
    def load_imbalance(self) -> float:
        """max / mean of per-worker busy time (1.0 = perfect)."""
        mean = float(self.busy_cycles.mean())
        if mean == 0:
            return 1.0
        return float(self.busy_cycles.max() / mean)

    @property
    def total_overhead(self) -> float:
        return float(self.overhead_cycles.sum())

    def as_row(self) -> dict[str, object]:
        return {
            "makespan": round(self.makespan_cycles, 1),
            "imbalance": round(self.load_imbalance, 3),
            "steal_attempts": self.steal_attempts,
            "steals_ok": self.steals_succeeded,
            "migrated": self.chunks_migrated,
            "overhead": round(self.total_overhead, 1),
        }


def simulate_static_persistent(
    chunk_cycles: np.ndarray,
    owner: np.ndarray,
    num_workers: int,
    *,
    pop_cycles: float = 8.0,
) -> StealingResult:
    """Persistent workgroups, no stealing: each runs only its own chunks.

    This is the static baseline the work-stealing figure compares
    against; makespan is simply the heaviest worker.
    """
    costs = as_chunk_costs(chunk_cycles)
    who = np.asarray(owner, dtype=np.int64).ravel()
    if costs.shape != who.shape:
        raise ValueError("chunk_cycles and owner must align")
    if who.size and (who.min() < 0 or who.max() >= num_workers):
        raise ValueError("owner out of range")
    busy = np.zeros(num_workers, dtype=np.float64)
    count = np.zeros(num_workers, dtype=np.int64)
    np.add.at(busy, who, costs)
    np.add.at(count, who, 1)
    overhead = count * pop_cycles
    makespan = float((busy + overhead).max()) if num_workers else 0.0
    return StealingResult(
        makespan_cycles=makespan,
        busy_cycles=busy,
        overhead_cycles=overhead.astype(np.float64),
        chunks_executed=count,
        steal_attempts=0,
        steals_succeeded=0,
        chunks_migrated=0,
    )


@dataclass
class _FastForward:
    """State after phase 1: what the event loop picks up from."""

    deques: list[deque[int]]  # each worker's chunks not yet popped
    popped: np.ndarray  # pops applied per worker
    busy: np.ndarray
    overhead: np.ndarray
    makespan: float
    pending: list[tuple[float, int]]  # (time, worker), in firing order


def _fast_forward(
    costs: np.ndarray,
    who: np.ndarray,
    w: int,
    pop: float,
    timeline: Timeline | None,
) -> _FastForward:
    """Phase 1: apply every event before the first possible steal.

    Worker ``k`` pops its own deque bottom-first. Its step times are
    ``s_0 = 0`` and ``s_{j+1} = (s_j + pop) + cost_j``, and at
    ``s_{count_k}`` it finds the deque empty. No deque changes hands
    before ``H``, the earliest such drain time, so every event before
    ``H`` is an independent pop. All step times come from one row-wise
    ``np.add.accumulate`` over ``[0, pop, cost, pop, cost, ...]``,
    which adds in sequence, so each time and each per-worker sum is
    bit-identical to the event loop's running additions.
    """
    order = np.argsort(who, kind="stable")
    counts = np.bincount(who, minlength=w)
    first = np.cumsum(counts) - counts
    ff = _FastForward(
        deques=[],
        popped=np.zeros(w, dtype=np.int64),
        busy=np.zeros(w),
        overhead=np.zeros(w),
        makespan=0.0,
        pending=[(0.0, k) for k in range(w)],  # roots fire in worker order
    )
    # An empty worker tries to steal at 0.0: then H = 0, nothing to apply.
    if counts.min() > 0:
        m = int(counts.max())
        rows = np.arange(w)
        mine = who[order]
        rank = counts[mine] - 1 - (np.arange(who.size) - first[mine])  # pop order
        steps = np.zeros((w, 2 * m + 1))
        steps[:, 1::2] = pop
        steps[mine, 2 * rank + 2] = costs[order]
        steps = np.add.accumulate(steps, axis=1)
        times = steps[:, ::2]  # s_0 .. s_m; past count_k, times only grow
        horizon = times[rows, counts].min()
        ff.popped = popped = (times < horizon).sum(axis=1)

        spent = np.zeros((w, m + 1))
        spent[mine, rank + 1] = costs[order]
        ff.busy = np.add.accumulate(spent, axis=1)[rows, popped]
        ff.overhead = np.add.accumulate(np.r_[0.0, np.full(m, pop)])[popped]
        now = times[rows, popped]  # each worker's pending event
        ff.makespan = float(now.max())
        if timeline is not None:
            chunk_at = np.zeros((w, m), dtype=np.int64)
            chunk_at[mine, rank] = order
            k, j = np.nonzero(np.arange(m) < popped[:, None])
            timeline.record_batch(
                k,
                steps[k, 2 * j + 1],
                steps[k, 2 * j + 2],
                [f"chunk{c}" for c in chunk_at[k, j].tolist()],
            )

        firing = np.argsort(now, kind="stable")
        at = now[firing]
        cuts = np.flatnonzero(at[1:] != at[:-1]) + 1
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), w]):
            if b - a > 1:
                firing[a:b] = _tie_order(times, popped, firing[a:b], w)
        ff.pending = list(zip(at.tolist(), firing.tolist()))

    ff.deques = [
        deque(order[f : f + c - p].tolist())
        for f, c, p in zip(first, counts, ff.popped)
    ]
    return ff


def _tie_order(
    times: np.ndarray, popped: np.ndarray, tied: np.ndarray, w: int
) -> np.ndarray:
    """Workers ``tied`` at one pending time, in the order their events fire.

    Equal times fire in scheduling order, and a worker's pending event
    was scheduled when its previous step fired. So the order compares
    each worker's step times backwards, down to its root event at 0.0;
    the root events fired in worker order (marked ``k - w``, below any
    time).
    """
    e = popped[tied]
    back = e[:, None] - np.arange(int(e.max()) + 2)
    chains = np.where(
        back >= 0, times[tied[:, None], np.maximum(back, 0)], (tied - w)[:, None]
    )
    chains = chains[:, (chains != chains[0]).any(axis=0)]  # equal columns never decide
    return tied[np.lexsort(chains.T[::-1])]


def _one_chunk_each(
    costs: np.ndarray,
    who: np.ndarray,
    w: int,
    pop: float,
    timeline: Timeline | None,
) -> StealingResult:
    """The run when workers ``0..n-1`` own one chunk each and the rest none.

    Root events fire at 0.0 in worker order, so workers ``0..n-1`` pop
    their one chunk before any empty worker looks for work. After that
    nothing is left anywhere and every later event retires: no steal
    attempt, no victim draw, no tracer event. The float operations are
    the event loop's: ``busy = 0.0 + cost``, ``overhead = 0.0 + pop``,
    end times ``(0.0 + pop) + cost``.
    """
    n = costs.size
    busy = np.zeros(w)
    overhead = np.zeros(w)
    executed = np.zeros(w, dtype=np.int64)
    busy[who] = 0.0 + costs
    overhead[:n] = 0.0 + pop
    executed[:n] = 1
    ends = (0.0 + pop) + costs
    makespan = ends.max() if n else 0.0
    if timeline is not None and n:
        chunk_of = np.empty(n, dtype=np.int64)
        chunk_of[who] = np.arange(n)
        timeline.record_batch(
            np.arange(n),
            np.full(n, 0.0 + pop),
            ends[chunk_of],
            [f"chunk{c}" for c in chunk_of.tolist()],
        )
    return StealingResult(
        makespan_cycles=np.float64(makespan) if makespan > 0 else 0.0,
        busy_cycles=busy,
        overhead_cycles=overhead,
        chunks_executed=executed,
        steal_attempts=0,
        steals_succeeded=0,
        chunks_migrated=0,
        timeline=timeline,
    )


def simulate_work_stealing(
    chunk_cycles: np.ndarray,
    owner: np.ndarray,
    config: StealingConfig,
    *,
    record_timeline: bool = False,
    tracer: "Tracer | None" = None,
) -> StealingResult:
    """Work-stealing run over pre-costed chunks, exact to the event order.

    ``chunk_cycles[i]`` is the execution cost of chunk ``i`` (already
    wavefront-aggregated by the caller); ``owner[i]`` its initial worker.

    When workers ``0..n-1`` own one chunk each (``owner`` a permutation
    of ``range(n)``, ``n <= num_workers``), no steal can ever happen and
    :func:`_one_chunk_each` returns the run directly. Otherwise phase 1
    (:func:`_fast_forward`) bulk-applies every pop that happens before
    the first possible steal. Phase 2 runs the rest as one heap
    loop over ``(time, seq, worker)`` events, one pending event per
    worker. Equal times fire in scheduling order (``seq``), so the
    schedule, the float sums and the victim RNG draws are those of a
    one-event-at-a-time simulation.

    When a :class:`~repro.obs.tracer.Tracer` is attached, every steal
    attempt lands in the sink as an instant at its simulated time —
    ``"steal"`` (with thief/victim/migrated chunk count) on success,
    ``"steal-fail"`` otherwise — nested inside the kernel event the
    executor emits afterwards. Tracing never touches the victim RNG or
    the event order, so traced and untraced runs are cycle-identical.
    """
    costs = as_chunk_costs(chunk_cycles)
    who = np.asarray(owner, dtype=np.int64).ravel()
    if costs.shape != who.shape:
        raise ValueError("chunk_cycles and owner must align")
    w = config.num_workers
    if who.size and (who.min() < 0 or who.max() >= w):
        raise ValueError("owner out of range")
    pop, steal = float(config.pop_cycles), float(config.steal_cycles)
    fraction, max_failed = config.steal_fraction, config.max_failed_attempts
    richest = config.steal_policy == "richest"

    timeline = Timeline(w) if record_timeline else None
    if costs.size <= w and np.array_equal(np.sort(who), np.arange(costs.size)):
        return _one_chunk_each(costs, who, w, pop, timeline)
    rng = np.random.default_rng(config.seed)
    ff = _fast_forward(costs, who, w, pop, timeline)

    deques = ff.deques
    busy = ff.busy.tolist()
    overhead = ff.overhead.tolist()
    executed = ff.popped.tolist()
    failed = [0] * w
    remaining = costs.size - int(ff.popped.sum())
    makespan = ff.makespan
    attempts = hits = migrated = 0
    cost_of = costs.tolist()

    heap = [(t, seq, me) for seq, (t, me) in enumerate(ff.pending)]
    seq = w
    processed = costs.size - remaining  # phase 1 events count too
    max_events = 50 * max(1, costs.size) + 200 * w * max_failed
    while heap:
        if processed >= max_events:
            break  # runaway guard
        now, _, me = heap[0]
        processed += 1
        dq = deques[me]
        if dq:
            # Pop own bottom: run one chunk.
            chunk = dq.pop()
            overhead[me] += pop
            start = now + pop
        elif remaining == 0:
            heapq.heappop(heap)  # retire: nothing left anywhere
            continue
        else:
            if richest:
                sizes = [len(d) for d in deques]
                sizes[me] = -1
                victim = max(range(w), key=sizes.__getitem__)  # first richest
                if sizes[victim] <= 0:
                    victim = None
            else:
                victim = int(rng.integers(0, w - 1))
                if victim >= me:
                    victim += 1
            attempts += 1
            overhead[me] += steal
            when = now + steal
            vdq = deques[victim] if victim is not None else None
            if not vdq:
                failed[me] += 1
                if tracer is not None:
                    tracer.sim_instant(
                        "steal-fail",
                        cat="steal",
                        at=when,
                        track=1 + me,
                        thief=me,
                        victim=-1 if victim is None else victim,
                    )
                if failed[me] >= max_failed:
                    heapq.heappop(heap)  # give up; stragglers finish without it
                else:
                    heapq.heapreplace(heap, (when, seq, me))
                    seq += 1
                continue
            take = max(1, math.ceil(len(vdq) * fraction))
            stolen = [vdq.popleft() for _ in range(take)]  # victim's top (FIFO end)
            hits += 1
            migrated += take
            if timeline is not None:
                timeline.record(me, now, when, f"steal<{victim}")
            if tracer is not None:
                tracer.sim_instant(
                    "steal",
                    cat="steal",
                    at=when,
                    track=1 + me,
                    thief=me,
                    victim=victim,
                    chunks=take,
                )
            # The thief takes one stolen chunk into its hands immediately
            # (it cannot be re-stolen) and queues the rest — this is what
            # guarantees progress: every successful steal executes work.
            dq.extendleft(stolen[1:])
            chunk = stolen[0]
            overhead[me] += pop
            start = when + pop
        remaining -= 1
        cost = cost_of[chunk]
        end = start + cost
        busy[me] += cost
        executed[me] += 1
        failed[me] = 0
        if end > makespan:
            makespan = end
        if timeline is not None:
            timeline.record(me, start, end, f"chunk{chunk}")
        heapq.heapreplace(heap, (end, seq, me))
        seq += 1

    return StealingResult(
        # an end time is np.float64 (Python float + array element), and
        # so was every positive makespan of the one-event-at-a-time loop
        makespan_cycles=np.float64(makespan) if makespan > 0 else 0.0,
        busy_cycles=np.array(busy, dtype=np.float64),
        overhead_cycles=np.array(overhead, dtype=np.float64),
        chunks_executed=np.array(executed, dtype=np.int64),
        steal_attempts=attempts,
        steals_succeeded=hits,
        chunks_migrated=migrated,
        timeline=timeline,
    )
