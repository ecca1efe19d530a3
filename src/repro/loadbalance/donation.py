"""Work donation — the sender-initiated alternative to work stealing.

Where stealing is *receiver-initiated* (idle workers probe victims),
donation is *sender-initiated*: a worker whose private deque grows past
a threshold pushes its surplus half into a shared overflow queue; idle
workers drain the overflow with one atomic pop instead of probing peers.
Donation trades steal-probe traffic for overflow-queue contention and a
donation cost on the busy worker's critical path — the classic pair the
load-balancing literature contrasts, reproduced here so E12 can compare
them under identical chunk costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..gpusim.events import EventSimulator
from .workstealing import StealingResult, as_chunk_costs, check_overheads

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = ["DonationConfig", "simulate_work_donation"]


@dataclass(frozen=True)
class DonationConfig:
    """Tuning knobs of the donation runtime.

    A worker donates when its deque holds more than
    ``donate_threshold`` chunks, moving half (oldest first) to the
    overflow queue at ``donate_cycles``; idle workers pop one overflow
    chunk for ``fetch_cycles``.
    """

    num_workers: int
    donate_threshold: int = 4
    donate_cycles: float = 200.0
    fetch_cycles: float = 100.0
    pop_cycles: float = 8.0
    retry_cycles: float = 200.0
    max_failed_attempts: int = 64

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.donate_threshold < 1:
            raise ValueError("donate_threshold must be >= 1")
        check_overheads(
            (self.donate_cycles, self.fetch_cycles, self.pop_cycles, self.retry_cycles),
            self.max_failed_attempts,
        )


def simulate_work_donation(
    chunk_cycles: np.ndarray,
    owner: np.ndarray,
    config: DonationConfig,
    *,
    tracer: "Tracer | None" = None,
) -> StealingResult:
    """Event-driven donation run over pre-costed chunks.

    Returns a :class:`~repro.loadbalance.workstealing.StealingResult`
    for drop-in comparison; ``steal_attempts``/``steals_succeeded``
    count overflow fetch attempts/hits and ``chunks_migrated`` the
    donated chunks.

    With a :class:`~repro.obs.tracer.Tracer` attached, deque-to-overflow
    migrations land as ``"donate"`` instants and overflow pops as
    ``"overflow-fetch"`` (category ``"steal"``, so one trace viewer
    track shows both balancers' migrations). Tracing is observation
    only: it never changes the schedule or the reported cycles.
    """
    costs = as_chunk_costs(chunk_cycles)
    who = np.asarray(owner, dtype=np.int64).ravel()
    if costs.shape != who.shape:
        raise ValueError("chunk_cycles and owner must align")
    w = config.num_workers
    if who.size and (who.min() < 0 or who.max() >= w):
        raise ValueError("owner out of range")

    sim = EventSimulator()
    deques: list[deque[int]] = [deque() for _ in range(w)]
    for idx in np.argsort(who, kind="stable"):
        deques[who[idx]].append(int(idx))
    overflow: deque[int] = deque()
    remaining = costs.size

    busy = np.zeros(w, dtype=np.float64)
    overhead = np.zeros(w, dtype=np.float64)
    executed = np.zeros(w, dtype=np.int64)
    failed = np.zeros(w, dtype=np.int64)
    stats = {"attempts": 0, "hits": 0, "migrated": 0}
    makespan = 0.0

    def run_chunk(me: int, chunk: int, start: float) -> None:
        nonlocal remaining, makespan
        remaining -= 1
        end = start + costs[chunk]
        busy[me] += costs[chunk]
        executed[me] += 1
        failed[me] = 0
        makespan = max(makespan, end)
        sim.schedule_at(end, lambda me=me: step(me))

    def step(me: int) -> None:
        dq = deques[me]
        now = sim.now
        if dq:
            if len(dq) > config.donate_threshold:
                # push the oldest half to the overflow queue
                give = len(dq) // 2
                for _ in range(give):
                    overflow.append(dq.popleft())
                stats["migrated"] += give
                overhead[me] += config.donate_cycles
                now += config.donate_cycles
                if tracer is not None:
                    tracer.sim_instant(
                        "donate", cat="steal", at=now, track=1 + me,
                        donor=me, chunks=give,
                    )
            overhead[me] += config.pop_cycles
            run_chunk(me, dq.pop(), now + config.pop_cycles)
            return
        if overflow:
            stats["attempts"] += 1
            stats["hits"] += 1
            overhead[me] += config.fetch_cycles
            if tracer is not None:
                tracer.sim_instant(
                    "overflow-fetch", cat="steal",
                    at=now + config.fetch_cycles, track=1 + me, thief=me,
                )
            run_chunk(me, overflow.popleft(), now + config.fetch_cycles)
            return
        if remaining == 0:
            return  # retire
        stats["attempts"] += 1
        overhead[me] += config.retry_cycles
        failed[me] += 1
        if failed[me] >= config.max_failed_attempts:
            return
        sim.schedule_at(now + config.retry_cycles, lambda me=me: step(me))

    for me in range(w):
        sim.schedule_at(0.0, lambda me=me: step(me))
    sim.run(max_events=50 * max(1, costs.size) + 200 * w * config.max_failed_attempts)

    return StealingResult(
        makespan_cycles=makespan,
        busy_cycles=busy,
        overhead_cycles=overhead,
        chunks_executed=executed,
        steal_attempts=stats["attempts"],
        steals_succeeded=stats["hits"],
        chunks_migrated=stats["migrated"],
    )
