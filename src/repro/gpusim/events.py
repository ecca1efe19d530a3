"""Minimal discrete-event engine for persistent-kernel simulation.

Grid dispatch (``scheduler.dispatch``) is a one-shot schedule, but the
persistent runtimes need genuine time interleaving: a worker's next
action (pop own deque, fetch, go idle) depends on the *global* state at
the moment it becomes free. :class:`EventSimulator` provides the usual
time-ordered callback queue with deterministic tie-breaking (insertion
order at equal timestamps). The work-donation runtime builds on it; work
stealing keeps the same event order in its own loop over drain events.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from itertools import count

__all__ = ["EventSimulator"]


class EventSimulator:
    """A time-ordered event loop.

    Events are ``(time, callback)``; callbacks may schedule further
    events. Ties in time resolve in scheduling order, so runs are fully
    deterministic.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time (cycles)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to fire at absolute ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past ({time} < now {self._now})"
            )
        heapq.heappush(self._heap, (float(time), next(self._seq), action))

    def schedule_after(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule_at(self._now + delay, action)

    def run(self, *, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the queue; returns the final simulation time.

        ``until`` stops the clock at a horizon (remaining events stay
        queued); ``max_events`` guards against runaway simulations.
        """
        while self._heap:
            if max_events is not None and self._processed >= max_events:
                break
            time, _, action = self._heap[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = time
            self._processed += 1
            action()
        return self._now

    def pending(self) -> int:
        """Number of queued events."""
        return len(self._heap)
