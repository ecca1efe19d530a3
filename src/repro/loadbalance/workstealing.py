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

Steals are rare next to local pops, and a worker's own pops follow a
fixed timeline that one sequential ``np.add.accumulate`` computes. A
steal only cuts chunks off the far end of the victim's timeline and
starts the thief on a new one, so the simulation visits only the
moments a worker finds its deque empty and reads the deque sizes there
off the timelines. Events at equal times fire in scheduling order and
the victim RNG is seeded, so every run is exactly reproducible.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "StealingConfig", "StealingResult", "simulate_work_stealing", "simulate_static_persistent"
]


def as_chunk_costs(chunk_cycles: np.ndarray) -> np.ndarray:
    """``chunk_cycles`` as a flat float64 array of finite, non-negative costs."""
    costs = np.asarray(chunk_cycles, dtype=np.float64).ravel()
    if costs.size and not (costs.min() >= 0 and costs.max() < math.inf):  # NaN fails too
        raise ValueError("chunk costs must be finite and non-negative")
    return costs


def check_overheads(cycles: tuple[float, ...], max_failed_attempts: int) -> None:
    """Reject a runtime config's non-finite or negative overheads, or no attempts."""
    if not all(math.isfinite(c) and c >= 0 for c in cycles):
        raise ValueError("overhead cycles must be finite and non-negative")
    if max_failed_attempts < 1:
        raise ValueError("max_failed_attempts must be >= 1")


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
        check_overheads((self.steal_cycles, self.pop_cycles), self.max_failed_attempts)


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
    owner: np.ndarray | None,
    num_workers: int,
    *,
    pop_cycles: float = 8.0,
) -> StealingResult:
    """Persistent workgroups, no stealing: each runs only its own chunks.

    This is the static baseline the work-stealing figure compares
    against; makespan is simply the heaviest worker. ``owner=None`` gives
    the executor's contiguous slabs of ``ceil(n / num_workers)`` chunks,
    as in :func:`simulate_work_stealing`. Each worker's busy time is one
    ``np.bincount`` sum, which adds its chunks in chunk order from 0.0,
    the same additions ``np.add.at`` makes.
    """
    costs = as_chunk_costs(chunk_cycles)
    n, w = costs.size, num_workers
    if owner is None:
        if w <= 0:
            raise ValueError("num_workers must be positive")
        count = _slabs(n, w)[1]
        who = np.repeat(np.arange(w), count)
    else:
        who = np.asarray(owner, dtype=np.int64).ravel()
        if costs.shape != who.shape:
            raise ValueError("chunk_cycles and owner must align")
        if who.size and (who.min() < 0 or who.max() >= w):
            raise ValueError("owner out of range")
        count = np.bincount(who, minlength=w)
    # float even with no chunks, where bincount would return int64 zeros
    busy = np.bincount(who, weights=costs, minlength=w).astype(np.float64, copy=False)
    overhead = count * pop_cycles
    makespan = float((busy + overhead).max()) if w else 0.0
    return StealingResult(makespan, busy, overhead.astype(np.float64), count, 0, 0, 0)


def _slabs(n: int, w: int) -> tuple[int, np.ndarray]:
    """The executor's contiguous slabs of ``n`` chunks over ``w`` workers:
    the slab length ``ceil(n / w)`` (at least 1) and each worker's count."""
    per = -(-n // w) or 1
    return per, np.minimum(np.maximum(n - per * np.arange(w), 0), per)


def _event_bound(n: int, w: int, max_failed: int) -> int:
    """The most events a run can take: ``n`` chunk starts, ``max_failed`` failed attempts
    after each of the ``n + w`` timelines (one per worker and steal), ``w`` retirements."""
    return n + (n + w) * max_failed + w


def _own_timelines(
    costs: np.ndarray, who: np.ndarray | None, w: int, pop: float
) -> tuple[np.ndarray, ...]:
    """Each worker's run through its own deque, popped bottom-first.

    Worker ``k`` pops the chunks it owns in reverse chunk order, and its
    ``j``-th pop costs ``mine[k, j]``. Row ``k`` of the steps accumulates
    ``[0, pop, mine[k, 0], pop, ...]``: column ``2j`` is the time of that
    pop (or, past the last one, of finding the deque empty), column
    ``2j + 1`` the chunk's start. Row ``k`` of ``spent``
    accumulates ``[0, mine[k, 0], ...]``, its last row ``[0, pop, pop,
    ...]``. ``np.add.accumulate`` adds in sequence, so every entry is
    bit-identical to an event loop's running sum. ``who=None`` stands for
    the contiguous slabs, which fill the rows by a reshape; an explicit
    owner fills them by a scatter.
    """
    n = costs.size
    if who is None:
        per, counts = _slabs(n, w)
        q, r = divmod(n, per)  # q full slabs, then one of r chunks
        flat = np.zeros(w * per)
        flat[: n - r] = costs[: n - r]
        flat[(q + 1) * per - r : (q + 1) * per] = costs[n - r :]  # reversed: popped first
        mine = flat.reshape(w, per)[:, ::-1]
    else:
        order, counts = np.argsort(who, kind="stable"), np.bincount(who, minlength=w)
        mine = np.zeros((w, int(counts.max())))
        mine[who[order], np.cumsum(counts)[who[order]] - 1 - np.arange(n)] = costs[order]
    m = mine.shape[1]
    steps = np.full((w, 2 * m + 1), pop)
    steps[:, 0], steps[:, 2::2] = 0.0, mine
    spent = np.zeros((w + 1, m + 1))
    spent[:w, 1:], spent[w, 1:] = mine, pop
    np.add.accumulate(steps, axis=1, out=steps)
    return steps, np.add.accumulate(spent, axis=1), mine, counts


@functools.lru_cache(maxsize=64)
def _first_draws(seed: int, w: int) -> tuple[int, ...]:
    return tuple(np.random.default_rng(seed).integers(0, w - 1, size=64).tolist())


def _victim_draws(seed: int, w: int) -> Iterator[int]:
    """The random policy's victim draws, ``rng.integers(0, w - 1)`` each (NumPy
    fills a block from the same stream as one draw at a time)."""
    yield from _first_draws(seed, w)  # cached: seeding costs more than most runs draw
    rng = np.random.default_rng(seed)
    rng.integers(0, w - 1, size=64)  # past the cached block
    while True:
        yield from rng.integers(0, w - 1, size=64).tolist()


def _one_chunk_each(costs: np.ndarray, who: np.ndarray, w: int, pop: float) -> StealingResult:
    """The run when workers ``0..n-1`` own one chunk each and the rest none.

    Root events fire at 0.0 in worker order, so workers ``0..n-1`` pop
    their one chunk before any empty worker looks for work. After that
    nothing is left anywhere and every later event retires: no steal
    attempt, no victim draw, no tracer event. The float operations are
    the event loop's: ``busy = 0.0 + cost``, ``overhead = 0.0 + pop``,
    end times ``(0.0 + pop) + cost``.
    """
    n = costs.size
    busy, overhead, executed = np.zeros(w), np.zeros(w), np.zeros(w, dtype=np.int64)
    busy[who], overhead[:n], executed[:n] = 0.0 + costs, 0.0 + pop, 1
    ends = (0.0 + pop) + costs
    makespan = ends.max() if n else 0.0
    makespan = np.float64(makespan) if makespan > 0 else 0.0
    return StealingResult(makespan, busy, overhead, executed, 0, 0, 0)


def simulate_work_stealing(
    chunk_cycles: np.ndarray,
    owner: np.ndarray | None,
    config: StealingConfig,
    *,
    tracer: "Tracer | None" = None,
) -> StealingResult:
    """Work-stealing run over pre-costed chunks, exact to the event order.

    ``chunk_cycles[i]`` is the execution cost of chunk ``i`` (already
    wavefront-aggregated by the caller); ``owner[i]`` its initial worker.
    ``owner=None`` gives the executor's contiguous slabs of ``ceil(n /
    num_workers)`` chunks (``owner = arange(n) // per``) without building
    or checking an owner array. When workers ``0..n-1`` own one chunk
    each, no steal can happen and :func:`_one_chunk_each` returns the
    run directly. Otherwise every
    worker starts on its own timeline (:func:`_own_timelines`), and the
    loop visits only the events at which a worker finds its deque empty
    and retires, gives up or makes a steal attempt, reading the deque
    sizes there off the timelines by binary search. Equal times fire in
    scheduling order, so the schedule, the float sums and the victim
    draws are those of a one-event-at-a-time loop.

    With a :class:`~repro.obs.tracer.Tracer` attached, every attempt
    lands in the sink as an instant at its simulated time, ``"steal"``
    (thief, victim, chunks taken) or ``"steal-fail"``, nested inside the
    kernel event the executor emits afterwards. Tracing never touches
    the victim draws or the event order.
    """
    costs = as_chunk_costs(chunk_cycles)
    w, n, inf = config.num_workers, costs.size, math.inf
    pop, steal = float(config.pop_cycles), float(config.steal_cycles)
    if owner is None:
        who = None
        if n <= w:  # slabs of one chunk
            return _one_chunk_each(costs, np.arange(n), w, pop)
    else:
        who = np.asarray(owner, dtype=np.int64).ravel()
        if costs.shape != who.shape:
            raise ValueError("chunk_cycles and owner must align")
        if n <= w and sorted(who.tolist()) == list(range(n)):
            return _one_chunk_each(costs, who, w, pop)
        if n and (who.min() < 0 or who.max() >= w):
            raise ValueError("owner out of range")
    max_failed, richest = config.max_failed_attempts, config.steal_policy == "richest"
    steps, spent, mine, counts = _own_timelines(costs, who, w, pop)
    rows = np.arange(w)

    # Worker k's events from index first[k] on happen at cur[k], its
    # earlier ones at past[k]. It pops its deque at the first planned[k]
    # of them, the last one at last[k], and finds it empty at the next,
    # nxt[k]. A thief's timeline is line[k] = (steps, busy and pop-cycle
    # rows, the costs of the chunks it took); ran[k] counts the chunks it ran
    # off its own deque, once it ran dry. done[k] = (index, rank in the
    # visiting order) of its last visited event; roots rank first.
    times = steps[:, ::2]
    cur, past, first = list(times), [[] for _ in range(w)], [0] * w
    planned, ran, line = counts.tolist(), [-1] * w, [None] * w
    nxt = times[rows, counts].tolist()
    last = np.where(counts > 0, times[rows, counts - 1], -inf).tolist()
    done = [(-1, k - w) for k in range(w)]
    busy, over, executed, failed = [0.0] * w, [0.0] * w, [0] * w, [0] * w
    runs: list[int] = []  # own timelines: chunks popped before the cost first changes
    makespan, attempts, hits, migrated, events = 0.0, 0, 0, 0, 0
    bound, draws = _event_bound(n, w, max_failed), _victim_draws(config.seed, w)

    def lockstep(a: int, b: int, i: int) -> bool:
        """Whether own timelines ``a`` and ``b`` open on ``i`` chunks of one cost."""
        if not runs:
            same = mine == mine[:, :1]
            runs.extend(np.where(same.all(axis=1), same.shape[1], same.argmin(axis=1)).tolist())
        return i <= runs[a] and i <= runs[b] and mine[a, 0] == mine[b, 0]

    def before(a: int, i: int, b: int, j: int) -> bool:
        """Whether event ``i`` of worker ``a`` fires before event ``j`` of ``b``.

        The two are at one time. Equal times fire in scheduling order,
        and an event is scheduled when its worker's previous one fires,
        so the order compares the two histories backwards to the most
        recent difference; root events fired in worker order.
        """
        (da, ra), (db, rb) = done[a], done[b]
        if da == i - 1 and db == j - 1:
            return ra < rb  # both scheduled by visited events
        if i == j and not first[a] and not first[b] and lockstep(a, b, i):
            return a < b
        n = min(i, j) + 1
        xs = np.concatenate([*past[a], cur[a][: i - first[a] + 1]])[i + 1 - n :]
        ys = np.concatenate([*past[b], cur[b][: j - first[b] + 1]])[j + 1 - n :]
        diff = (xs != ys).nonzero()[0]
        if diff.size:
            return bool(xs[diff[-1]] < ys[diff[-1]])
        return (i, a) < (j, b)  # the shorter history reached its root first

    @functools.cmp_to_key
    def order(x: int, y: int) -> int:
        return -1 if before(x, first[x] + planned[x], y, first[y] + planned[y]) else 1

    def queued(b: int, t: float, a: int, i: int) -> int:
        """Chunks in ``b``'s deque when event ``i`` of ``a`` fires at ``t``."""
        if last[b] < t:
            return 0
        h, hi = cur[b], planned[b]
        j = bisect.bisect_left(h, t, 0, hi)  # pops before t have fired
        if j < hi and h[j] == t:  # of the pops at t, a prefix fires first
            top = bisect.bisect_right(h, t, j, hi)
            while j < top:
                mid = (j + top) // 2
                j, top = (mid + 1, top) if before(b, first[b] + mid, a, i) else (j, mid)
        return hi - j

    def close(k: int) -> None:
        """Book the chunks thief ``k`` ran on its finished timeline."""
        nonlocal makespan, events
        (row, busy_row, pop_row, _), e = line[k], 1 + planned[k]
        busy[k], over[k], line[k] = busy_row[e], pop_row[e], None
        events += e - 1  # its pops; the steal that began it was visited
        executed[k] += e
        makespan = max(makespan, row[2 * e])

    due: list[int] = []  # the workers whose next event is at t, in firing order
    while due or (t := min(nxt)) < inf:
        if not due:
            due = [nxt.index(t)]
            if nxt.count(t) > 1:
                due = sorted((k for k in range(w) if nxt[k] == t), key=order)
        a = due.pop(0)
        i = first[a] + planned[a]
        if ran[a] < 0:  # its own deque ran dry
            ran[a] = e = planned[a]
            busy[a], over[a] = spent[a, e], spent[w, e]
            events += e
        elif line[a] is not None:
            close(a)
        last[a], rank = -inf, events
        events += 1
        if events > bound:
            raise RuntimeError(f"work stealing took {events} events, past its bound {bound}")
        top = max(last)
        if top < t or top == t and all(
            before(b, first[b] + planned[b] - 1, a, i)
            for b in range(w)
            if last[b] == t
        ):
            break  # nothing left anywhere: every pending event retires

        if richest:
            sizes = [queued(b, t, a, i) for b in range(w)]
            sizes[a] = -1
            victim = max(range(w), key=sizes.__getitem__)  # the first richest
            size = sizes[victim]
        else:
            victim = next(draws)
            victim += victim >= a
            size = queued(victim, t, a, i)
        attempts, when = attempts + 1, t + steal
        over[a] += steal
        past[a].append(cur[a][: planned[a] + 1])  # a's next events: from i + 1
        first[a], planned[a], done[a] = i + 1, 0, (i, rank)
        if size <= 0:
            failed[a] += 1
            if tracer is not None:
                shown = {"thief": a, "victim": -1 if richest else victim}
                tracer.sim_instant("steal-fail", cat="steal", at=when, track=1 + a, **shown)
            if failed[a] >= max_failed:
                nxt[a] = inf  # give up; stragglers finish without it
                continue
            cur[a], nxt[a] = [when], when
            if when == t:
                bisect.insort(due, a, key=order)
            continue

        # Take the top of the victim's deque: the far end of its timeline.
        take, p = max(1, math.ceil(size * config.steal_fraction)), planned[victim]
        if line[victim] is None:
            spend = mine[victim, p - take : p][::-1].tolist()
        else:  # after the chunk it held
            spend = line[victim][3][p - take + 1 : p + 1][::-1]
        planned[victim] = p = p - take
        nxt[victim] = float(cur[victim][p])
        last[victim] = float(cur[victim][p - 1]) if p else -inf
        if victim in due:
            due.remove(victim)
        if nxt[victim] == t:  # its pending event is now its last
            bisect.insort(due, victim, key=order)
        hits, migrated, failed[a] = hits + 1, migrated + take, 0
        if tracer is not None:
            shown = {"thief": a, "victim": victim, "chunks": take}
            tracer.sim_instant("steal", cat="steal", at=when, track=1 + a, **shown)
        # The thief runs the topmost chunk at once (it cannot be re-stolen,
        # which guarantees progress) and queues the rest in the same order.
        # A steal takes a few chunks: summing Python floats in sequence is
        # as exact as np.add.accumulate and cheaper at that size.
        planned[a] = take - 1
        if take == 1:  # nothing to queue: book its one chunk now
            busy[a], over[a], executed[a] = busy[a] + spend[0], over[a] + pop, executed[a] + 1
            cur[a], nxt[a] = [when + pop + spend[0]], when + pop + spend[0]
            makespan = max(makespan, nxt[a])
        else:
            row = [pop] * (2 * take + 1)
            row[0], row[2::2] = when, spend
            row = list(accumulate(row))
            paid = list(accumulate([over[a]] + [pop] * take))
            line[a] = (row, list(accumulate([busy[a], *spend])), paid, spend)
            cur[a], nxt[a], last[a] = row[2::2], row[-1], row[-3]
        if nxt[a] == t:
            bisect.insort(due, a, key=order)

    for k in range(w):
        if line[k] is not None:
            close(k)
    # The runs off the workers' own deques, booked in bulk.
    fresh = np.array(ran) < 0  # never ran dry: still on its own timeline
    e = np.where(fresh, planned, ran)
    if e.any():
        makespan = max(makespan, steps[rows, 2 * e].max())
    # every positive makespan of the one-event-at-a-time loop was an
    # np.float64 (Python float + array element)
    makespan = np.float64(makespan) if makespan > 0 else 0.0
    busy_of, over_of = np.where(fresh, spent[rows, e], busy), np.where(fresh, spent[w, e], over)
    ran_of = e + np.array(executed, dtype=np.int64)
    return StealingResult(makespan, busy_of, over_of, ran_of, attempts, hits, migrated)
