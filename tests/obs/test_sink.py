"""Unit tests for trace sinks: ring bounds and tee fan-out."""

import pytest

from repro.obs.events import TraceEvent
from repro.obs.sink import (
    RingBufferSink,
    TeeSink,
    TraceSink,
)


def ev(i, cat="kernel"):
    return TraceEvent(name=f"e{i}", cat=cat, ts=float(i), dur=1.0)


class TestRingBufferSink:
    def test_retains_in_order(self):
        ring = RingBufferSink(capacity=8)
        for i in range(5):
            ring.emit(ev(i))
        assert [e.name for e in ring.events] == ["e0", "e1", "e2", "e3", "e4"]
        assert len(ring) == 5
        assert ring.emitted == 5
        assert ring.dropped == 0

    def test_overflow_drops_oldest(self):
        ring = RingBufferSink(capacity=3)
        for i in range(10):
            ring.emit(ev(i))
        # retention policy: newest `capacity` events survive
        assert [e.name for e in ring.events] == ["e7", "e8", "e9"]
        assert ring.emitted == 10
        assert ring.dropped == 7

    def test_clear_resets_counts(self):
        ring = RingBufferSink(capacity=2)
        for i in range(5):
            ring.emit(ev(i))
        ring.clear()
        assert len(ring) == 0
        assert ring.emitted == 0
        assert ring.dropped == 0

    def test_iterable(self):
        ring = RingBufferSink(capacity=4)
        ring.emit(ev(0))
        assert [e.name for e in ring] == ["e0"]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_satisfies_protocol(self):
        assert isinstance(RingBufferSink(), TraceSink)


class TestTeeSink:
    def test_fans_out(self):
        a, b = RingBufferSink(), RingBufferSink()
        tee = TeeSink((a, b))
        tee.emit(ev(0))
        assert len(a) == 1
        assert len(b) == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TeeSink(())
