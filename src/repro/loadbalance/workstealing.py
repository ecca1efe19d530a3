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
fixed timeline that a sequential ``np.add.accumulate`` computes, two
workers' timelines to a complex row, one per lane. A steal only cuts
chunks off the far end of the victim's timeline and starts the thief
on a new one, so the simulation visits only the moments a worker finds
its deque empty and reads the deque sizes there off the timelines.
Events at equal times fire in scheduling order and the victim RNG is
seeded, so every run is exactly reproducible.
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
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
    # the ufuncs' reductions, without the ndarray methods' Python layer; NaN fails too
    if costs.size and not (np.minimum.reduce(costs) >= 0 and np.maximum.reduce(costs) < math.inf):
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
        count = np.array(_slabs(n, w)[1])
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


def _slabs(n: int, w: int) -> tuple[int, list[int]]:
    """The executor's contiguous slabs of ``n`` chunks over ``w`` workers:
    the slab length ``ceil(n / w)`` (at least 1) and each worker's count."""
    per = -(-n // w) or 1
    q, r = divmod(n, per)  # q full slabs, then one of r chunks
    return per, [per] * q + [r] * (r > 0) + [0] * (w - q - (r > 0))


def _event_bound(n: int, w: int, max_failed: int) -> int:
    """The most events a run can take: ``n`` chunk starts, ``max_failed`` failed attempts
    after each of the ``n + w`` timelines (one per worker and steal), ``w`` retirements."""
    return n + (n + w) * max_failed + w


def _lanes(half: int, width: int, step: int) -> tuple[np.ndarray, np.ndarray, list[memoryview]]:
    """Room for ``2 * half`` float64 rows of ``width``, two to a complex128 row.

    Row ``k`` is lane ``k // half`` (real, then imaginary) of complex row
    ``k % half``. Returns the complex array, one ``np.add.accumulate`` of
    which runs both lanes; its ``(half, width, 2)`` float64 view, through
    which the rows are filled; and every ``step``-th entry of each row
    (``step`` divides ``width``) as a memoryview, which reads the array as
    it is, in Python floats.
    """
    z = np.empty((half, width), dtype=np.complex128)
    flat, size = z.view(np.float64).ravel(), width // step
    lanes = memoryview(flat[:: 2 * step]), memoryview(flat[1 :: 2 * step])
    rows = [lane[r * size : (r + 1) * size] for lane in lanes for r in range(half)]
    return z, flat.reshape(half, width, 2), rows


def _own_timelines(
    costs: np.ndarray, who: np.ndarray | None, w: int, pop: float
) -> tuple[list[memoryview], list[memoryview], array, np.ndarray, list[int], list[int]]:
    """Each worker's run through its own deque, popped bottom-first.

    Worker ``k`` owns the ``counts[k]`` chunks of ``chunks`` (the costs in
    owner order) that end at ``stops[k]``, and pops them in reverse: its
    ``j``-th pop costs ``mine[k, j] = chunks[stops[k] - 1 - j]``. Row ``k``
    of the steps accumulates ``[0, pop, mine[k, 0], pop, ...]``: column
    ``2j`` is the time of that pop (or, past the last one, of finding the
    deque empty), column ``2j + 1`` the chunk's start. Row ``k`` of
    ``spent`` accumulates the even columns, ``[0, mine[k, 0], ...]``, and
    ``paid[e]`` is the cycles of ``e`` pops. The rows live in the lanes of
    :func:`_lanes`: a complex addition is two independent IEEE float64
    additions, one per lane, and ``np.add.accumulate`` adds in sequence,
    so every entry is bit-identical to an event loop's running sum. A row
    shorter than its array is zero-padded only after its own end.
    ``who=None`` stands for the contiguous slabs: their rows of ``mine``
    are reversed views of the costs, and only the short slab and the
    empty rows are built; an explicit owner builds ``mine`` by a
    scatter. Returns the rows of event times (the even columns of the
    summed steps) and of ``spent`` as memoryviews, then ``paid``,
    ``chunks``, ``stops`` and ``counts``.
    """
    n, h = costs.size, -(-w // 2)
    if who is None:  # rows q on: the slab of r chunks, then none
        per, counts = _slabs(n, w)
        q, r = divmod(n, per)
        chunks, full = costs, costs[: q * per].reshape(q, per)[:, ::-1]
        rest = np.zeros((2 * h - q, per))
        rest.ravel()[:r] = costs[q * per :][::-1]
    else:
        order, counts = np.argsort(who, kind="stable"), np.bincount(who, minlength=w)
        chunks, full = costs[order], np.zeros((2 * h, int(counts.max())))
        full[who[order], np.cumsum(counts)[who[order]] - 1 - np.arange(n)] = chunks
        q, rest, counts = 2 * h, full[:0], counts.tolist()
    m = full.shape[1]  # rows of mine: full[:q], then rest (a row w, for odd w, is zero)
    # one column past the last event, so the event columns of a lane are evenly spaced
    zs, steps, times = _lanes(h, 2 * m + 2, 2)
    zb, _, spent = _lanes(h, m + 1, 1)
    zs.fill(complex(pop, pop))  # one contiguous pass: strided fills are slow
    zs[:, 0] = 0.0
    for lane, lo in enumerate((0, h)):  # rows lo .. lo + h - 1
        k = min(max(q - lo, 0), h)
        steps[:k, 2::2, lane] = full[lo : lo + k]
        steps[k:, 2::2, lane] = rest[lo + k - q : lo + h - q]
    np.add.accumulate(zs[:, ::2], axis=1, out=zb)  # the even columns: [0, mine[k, 0], ...]
    np.add.accumulate(zs, axis=1, out=zs)
    paid = _pop_sums(pop, 1 << m.bit_length())
    return times[:w], spent[:w], paid, chunks, list(accumulate(counts)), counts


@functools.lru_cache(maxsize=16)
def _pop_sums(pop: float, size: int) -> array:
    """``[0.0, pop, pop + pop, ...]`` to ``size`` entries: the overhead of
    each number of pops, added in sequence as an event loop adds it. Its
    prefixes serve every shorter run, so callers round ``size`` up to a
    power of two and a few arrays serve every call of a run; they are
    shared, and nothing writes to them."""
    return array("d", accumulate([pop] * (size - 1), initial=0.0))


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


def _one_chunk_each(
    costs: np.ndarray, who: np.ndarray | None, w: int, pop: float
) -> StealingResult:
    """The run when workers ``0..n-1`` own one chunk each and the rest none.

    ``who=None`` stands for chunk ``k`` on worker ``k``. Root events fire
    at 0.0 in worker order, so workers ``0..n-1`` pop their one chunk
    before any empty worker looks for work. After that nothing is left
    anywhere and every later event retires: no steal attempt, no victim
    draw, no tracer event. The float operations are the event loop's:
    ``busy = 0.0 + cost``, ``overhead = 0.0 + pop``, end times ``(0.0 +
    pop) + cost``, whose largest is ``(0.0 + pop) + max(cost)`` (rounding
    is monotone).
    """
    n = costs.size
    busy, overhead, executed = np.zeros(w), np.zeros(w), np.zeros(w, dtype=np.int64)
    busy[slice(n) if who is None else who] = costs + 0.0
    overhead[:n], executed[:n] = 0.0 + pop, 1
    makespan = (0.0 + pop) + np.maximum.reduce(costs) if n else 0.0
    return StealingResult(
        makespan if makespan > 0 else 0.0, busy, overhead, executed, 0, 0, 0
    )


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
    draws are those of a one-event-at-a-time loop; sums that overflow
    fire at ``inf`` in that order too.

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
            return _one_chunk_each(costs, None, w, pop)
    else:
        who = np.asarray(owner, dtype=np.int64).ravel()
        if costs.shape != who.shape:
            raise ValueError("chunk_cycles and owner must align")
        if n <= w and sorted(who.tolist()) == list(range(n)):
            return _one_chunk_each(costs, who, w, pop)
        if n and (who.min() < 0 or who.max() >= w):
            raise ValueError("owner out of range")
    max_failed, richest = config.max_failed_attempts, config.steal_policy == "richest"
    times, spent, paid, chunks, stops, planned = _own_timelines(costs, who, w, pop)

    # Worker k's events from index first[k] on happen at cur[k], its
    # earlier ones at past[k]. It pops its deque at the first planned[k]
    # of them, the last one at last[k] (top >= max(last), equal unless
    # stale), and finds it empty at the next, nxt[k]. A thief's timeline
    # is line[k] = (steps, busy and pop-cycle rows, the costs of the
    # chunks it took); ran[k] counts the chunks it ran off its own deque,
    # once it ran dry. done[k] = (index, rank in the visiting order) of
    # its last visited event; roots rank first.
    cur, past, first = times.copy(), [[] for _ in range(w)], [0] * w
    ran, line = [-1] * w, [None] * w
    nxt = [cur[k][c] for k, c in enumerate(planned)]
    last = [cur[k][c - 1] if c else -inf for k, c in enumerate(planned)]
    top, stale = max(last), False
    done = [(-1, k - w) for k in range(w)]
    busy, over, executed, failed = [0.0] * w, [0.0] * w, [0] * w, [0] * w
    # own timeline k opens on known[k] chunks of one cost, and not on short[k]
    owned, known, short = memoryview(chunks), [0] * w, [n + 1] * w
    makespan, attempts, hits, migrated, events = 0.0, 0, 0, 0, 0
    bound, draws = _event_bound(n, w, max_failed), _victim_draws(config.seed, w)

    def opens(k: int, i: int) -> bool:
        """Whether own timeline ``k`` opens on ``i`` chunks of one cost.

        Pop ``j`` is chunk ``stops[k] - 1 - j``. The chunks not compared
        yet are compared with their successors, as bytes in one pass: a
        -0.0 beside a 0.0 then reads as two costs, which only sends the
        question to the full history comparison of :func:`before`.
        """
        if i <= known[k]:
            return True
        if i >= short[k]:
            return False
        lo, hi = stops[k] - i, stops[k] - max(known[k], 1)
        if owned[lo:hi].tobytes() == owned[lo + 1 : hi + 1].tobytes():
            known[k] = i
            return True
        short[k] = i
        return False

    def lockstep(a: int, b: int, i: int) -> bool:
        """Whether own timelines ``a`` and ``b`` open on ``i`` chunks of one cost."""
        return owned[stops[a] - 1] == owned[stops[b] - 1] and opens(a, i) and opens(b, i)

    def fire_order(ks: list[int]) -> None:
        """Sort tied workers ``ks`` (in worker order) into firing order.

        Two cases need no pairwise comparison of histories: every pending
        event was scheduled by a visited one, or by none (roots fire in
        worker order), so the ranks order them; or all are roots whose
        own timelines open on the same ``i`` chunks of one cost, so their
        histories agree and worker order stands.
        """
        if all(done[k][0] == first[k] + planned[k] - 1 for k in ks):
            ks.sort(key=lambda k: done[k][1])
            return
        i = planned[ks[0]]
        if any(first[k] or planned[k] != i for k in ks) or not all(
            lockstep(ks[0], k, i) for k in ks[1:]
        ):
            ks.sort(key=order)

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
        for x, y in zip(history(a, i), history(b, j)):
            if x != y:
                return x < y
        return (i, a) < (j, b)  # the shorter history reached its root first

    def history(k: int, i: int) -> Iterator[float]:
        """Worker ``k``'s event times from event ``i`` back to its root."""
        yield from reversed(cur[k][: i - first[k] + 1])
        for earlier in reversed(past[k]):
            yield from reversed(earlier)

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
    while True:
        if not due:
            t = min(nxt)
            if t < inf and nxt.count(t) == 1:
                due = [nxt.index(t)]
            else:  # a tie, or sums that overflowed; a worker that gave up never fires
                due = [k for k in range(w) if nxt[k] == t and failed[k] < max_failed]
                if not due:
                    break
                fire_order(due)
        a = due.pop(0)
        i = first[a] + planned[a]
        if ran[a] < 0:  # its own deque ran dry
            ran[a] = e = planned[a]
            busy[a], over[a] = spent[a][e], paid[e]
            events += e
        elif line[a] is not None:
            close(a)
        stale = stale or last[a] == top
        last[a], rank = -inf, events
        events += 1
        if events > bound:
            raise RuntimeError(f"work stealing took {events} events, past its bound {bound}")
        if stale:
            top, stale = max(last), False
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
        if line[victim] is None:  # its own chunks, in chunk order
            stop = stops[victim] - p
            spend = owned[stop : stop + take].tolist()
        else:  # after the chunk it held
            spend = line[victim][3][p - take + 1 : p + 1][::-1]
        planned[victim] = p = p - take
        stale = stale or last[victim] == top
        nxt[victim], last[victim] = cur[victim][p], cur[victim][p - 1] if p else -inf
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
            paid_row = list(accumulate([over[a]] + [pop] * take))
            line[a] = (row, list(accumulate([busy[a], *spend])), paid_row, spend)
            cur[a], nxt[a], last[a] = row[2::2], row[-1], row[-3]
            top = max(top, last[a])
        if nxt[a] == t:
            bisect.insort(due, a, key=order)

    for k in range(w):  # the thieves' last timelines, then the runs off own deques
        if line[k] is not None:
            close(k)
        e = ran[k]
        if e < 0:  # never ran dry: still on its own timeline
            e = planned[k]
            busy[k], over[k] = spent[k][e], paid[e]
        executed[k] += e
        makespan = max(makespan, times[k][e])
    # every positive makespan of the one-event-at-a-time loop was an
    # np.float64 (Python float + array element)
    makespan = np.float64(makespan) if makespan > 0 else 0.0
    return StealingResult(
        makespan,
        np.array(busy),
        np.array(over),
        np.array(executed, dtype=np.int64),
        attempts,
        hits,
        migrated,
    )
