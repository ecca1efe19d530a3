"""Trace sinks — where emitted events go.

The contract is one method: :class:`TraceSink` objects accept events via
``emit``. The default sink is a **bounded** ring buffer so a
:class:`~repro.engine.context.RunContext` shared across a whole batch
(or a long autotune session) holds at most ``capacity`` events no matter
how many runs report into it.

Retention policy
----------------
:class:`RingBufferSink` keeps the **most recent** ``capacity`` events
and silently drops the oldest on overflow; ``emitted`` counts every
event ever offered and ``dropped`` how many fell off the head, so
consumers can tell a complete trace from a truncated one. Aggregates
are never lost to truncation: the
:class:`~repro.obs.registry.MetricsRegistry` (and the engine's
:class:`~repro.gpusim.counters.ExecutionCounters`) consume events as
they are emitted, before the buffer can evict them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from typing import Protocol, runtime_checkable

from .events import TraceEvent

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "TraceSink",
    "RingBufferSink",
    "TeeSink",
]

#: default ring-buffer capacity — ~64k events is hours of simulated
#: kernel launches while staying a few MB of host memory.
DEFAULT_TRACE_CAPACITY = 65536


@runtime_checkable
class TraceSink(Protocol):
    """Anything that accepts trace events."""

    def emit(self, event: TraceEvent) -> None: ...


class RingBufferSink:
    """Bounded in-memory sink: keeps the newest ``capacity`` events."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self.emitted += 1
        self._buf.append(event)

    @property
    def dropped(self) -> int:
        """Events evicted from the head since creation/last clear."""
        return self.emitted - len(self._buf)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """Snapshot of the retained events, oldest first."""
        return tuple(self._buf)

    def clear(self) -> None:
        """Drop retained events and reset the counts."""
        self._buf.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(tuple(self._buf))


class TeeSink:
    """Fan one event stream out to several sinks (buffer + registry)."""

    def __init__(self, sinks: Iterable[TraceSink]) -> None:
        self.sinks: tuple[TraceSink, ...] = tuple(sinks)
        if not self.sinks:
            raise ValueError("TeeSink needs at least one sink")

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)


def _as_events(source: "TraceSink | Iterable[TraceEvent]") -> Sequence[TraceEvent]:
    """Events from a sink (its retained buffer) or any iterable."""
    if isinstance(source, RingBufferSink):
        return source.events
    events = getattr(source, "events", None)
    if events is not None:
        return tuple(events)
    return tuple(source)  # type: ignore[arg-type]
