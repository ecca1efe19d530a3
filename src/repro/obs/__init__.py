"""Observability layer — structured tracing, metrics, profiling hooks.

The paper's method is *measure the imbalance first, then attack it*;
this package is that measurement substrate for the whole stack:

* :mod:`repro.obs.events` — typed :class:`TraceEvent`/:class:`Span`
  records (two clock domains: simulated cycles and host wall time);
* :mod:`repro.obs.sink` — the :class:`TraceSink` protocol, the bounded
  :class:`RingBufferSink` default, :class:`TeeSink` fan-out;
* :mod:`repro.obs.tracer` — the :class:`Tracer` handle the engine,
  runtime simulators, scheduler, and harness emit through;
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, streaming
  per-phase aggregation (kernels, steal traffic, SIMD efficiency, CU
  occupancy, wall time);
* :mod:`repro.obs.export` — JSONL / CSV / Chrome ``trace_event``
  exporters.

Enable it per run via
:meth:`repro.engine.context.RunContext.enable_tracing`; when no tracer
is attached every instrumentation site is a single ``is None`` check.
"""

from .events import CYCLES, WALL, Span, TraceEvent
from .export import (
    export_chrome_trace,
    export_csv,
    export_jsonl,
    read_jsonl,
    to_chrome_events,
)
from .registry import UNPHASED, MetricsRegistry, PhaseStats
from .sink import (
    DEFAULT_TRACE_CAPACITY,
    RingBufferSink,
    TeeSink,
    TraceSink,
)
from .tracer import Tracer

__all__ = [
    "CYCLES",
    "WALL",
    "TraceEvent",
    "Span",
    "TraceSink",
    "RingBufferSink",
    "TeeSink",
    "DEFAULT_TRACE_CAPACITY",
    "Tracer",
    "MetricsRegistry",
    "PhaseStats",
    "UNPHASED",
    "export_jsonl",
    "read_jsonl",
    "export_csv",
    "to_chrome_events",
    "export_chrome_trace",
]
