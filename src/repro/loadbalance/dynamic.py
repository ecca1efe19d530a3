"""Dynamic chunk fetch — the global-atomic-counter load balancer.

The middle ground between static slabs and full work stealing: persistent
workers repeatedly fetch the next chunk index from a single global atomic
counter. Balancing is as good as greedy list scheduling at chunk
granularity, but every fetch pays the atomic round-trip, and the single
counter is a contention hot-spot at small chunk sizes — which is exactly
the trade-off experiment E9's chunk-size sweep exposes.
"""

from __future__ import annotations

import heapq

import numpy as np

from .workstealing import StealingResult, as_chunk_costs

__all__ = ["simulate_dynamic_fetch"]


def simulate_dynamic_fetch(
    chunk_cycles: np.ndarray,
    num_workers: int,
    *,
    atomic_cycles: float = 64.0,
    contention_factor: float = 0.5,
) -> StealingResult:
    """Greedy chunk fetch from one global counter.

    Each fetch costs ``atomic_cycles`` plus a contention term that grows
    with the number of workers hammering the counter
    (``contention_factor * num_workers`` cycles), serialized before the
    chunk executes. Chunks are taken in index order by whichever worker
    frees up first — deterministic greedy list scheduling.
    """
    costs = as_chunk_costs(chunk_cycles)
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if atomic_cycles < 0 or contention_factor < 0:
        raise ValueError("overheads must be non-negative")

    fetch_cost = atomic_cycles + contention_factor * num_workers

    busy = np.zeros(num_workers, dtype=np.float64)
    overhead = np.zeros(num_workers, dtype=np.float64)
    executed = np.zeros(num_workers, dtype=np.int64)
    heap: list[tuple[float, int]] = [(0.0, p) for p in range(num_workers)]
    heapq.heapify(heap)
    makespan = 0.0
    for cost in costs:
        free_at, worker = heapq.heappop(heap)
        end = free_at + fetch_cost + cost
        overhead[worker] += fetch_cost
        busy[worker] += cost
        executed[worker] += 1
        makespan = max(makespan, end)
        heapq.heappush(heap, (end, worker))

    return StealingResult(
        makespan_cycles=makespan,
        busy_cycles=busy,
        overhead_cycles=overhead,
        chunks_executed=executed,
        steal_attempts=0,
        steals_succeeded=0,
        chunks_migrated=0,
    )
