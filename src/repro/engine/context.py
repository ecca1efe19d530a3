"""RunContext — the one object a whole run threads through.

Before this layer existed, every entry point re-derived the same
plumbing ad hoc: a ``DeviceConfig`` here, a fresh ``MemoryModel`` there,
loose ``seed`` kwargs, and per-executor counters that could not be
aggregated across a batch. :class:`RunContext` bundles that state —
device, memory model, seed, array backend, and the counter/trace
sinks — so algorithms, the executor, the harness, and the CLI all
consume one explicitly-passed object.

Sharing matters: every executor built from the same context reports
into its run-level :class:`~repro.gpusim.counters.ExecutionCounters` on
top of its own per-run window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..gpusim.counters import ExecutionCounters
from ..gpusim.device import RADEON_HD_7950, DeviceConfig
from ..gpusim.memory import MemoryModel
from ..obs.sink import DEFAULT_TRACE_CAPACITY, RingBufferSink, TeeSink
from ..obs.tracer import Tracer
from .backend import ArrayBackend, make_backend

if TYPE_CHECKING:
    from ..coloring.kernels import ExecutionConfig, GPUExecutor
    from ..obs.registry import MetricsRegistry

__all__ = ["RunContext", "resolve_context"]


@dataclass
class RunContext:
    """Shared execution state for one run (or one batch of runs).

    Parameters
    ----------
    device:
        Machine model every executor built from this context times on.
    memory:
        Memory-system model for ``device``; built from it when omitted.
        Every executor built from this context uses it.
    seed:
        Default RNG seed for algorithms that are not given one
        explicitly (priorities, conflict tie-breaks).
    backend:
        Array backend for the first-fit kernel — an
        :class:`~repro.engine.backend.ArrayBackend` instance (a test or
        profiler substitutes its own here) or a name resolved through
        :func:`~repro.engine.backend.make_backend`.
    counters:
        Run-level profiling sink; every executor in the context
        aggregates into it in addition to its own per-run window.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when attached, the
        engine, runtime simulators, scheduler, and harness emit typed
        :class:`~repro.obs.events.TraceEvent` records through it. Most
        callers use :meth:`enable_tracing` instead of building one.
    """

    device: DeviceConfig = RADEON_HD_7950
    memory: MemoryModel | None = None
    seed: int = 0
    backend: ArrayBackend | str = "numpy"
    counters: ExecutionCounters = field(default_factory=ExecutionCounters)
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        if self.memory is None:
            self.memory = MemoryModel(self.device)
        elif self.memory.device != self.device:
            raise ValueError("memory model is for a different device than the context's")
        if isinstance(self.backend, str):
            self.backend = make_backend(self.backend)

    # ------------------------------------------------------------------

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A fresh deterministic generator from the context seed."""
        return np.random.default_rng(self.seed + salt)

    def executor(
        self, config: "ExecutionConfig | None" = None, **config_kwargs
    ) -> "GPUExecutor":
        """Build a :class:`GPUExecutor` bound to this context.

        This is the one way to build an executor: it times on this
        context's device and memory model. Pass either a ready
        :class:`ExecutionConfig` or its keyword fields (``mapping=...``,
        ``schedule=...``, ...).
        """
        from ..coloring.kernels import ExecutionConfig, GPUExecutor

        if config is None:
            config = ExecutionConfig(**config_kwargs)
        elif config_kwargs:
            raise ValueError("pass either a config object or keyword fields, not both")
        return GPUExecutor(self, config)

    def resolve_seed(self, seed: int | None) -> int:
        """An explicit seed wins; ``None`` falls back to the context's."""
        return self.seed if seed is None else int(seed)

    def enable_tracing(
        self,
        *,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        registry: "MetricsRegistry | None" = None,
    ) -> RingBufferSink:
        """Attach a tracer backed by a bounded ring buffer.

        Returns the :class:`~repro.obs.sink.RingBufferSink` holding the
        retained events (newest ``capacity``; see :mod:`repro.obs.sink`
        for the retention policy). Pass a
        :class:`~repro.obs.registry.MetricsRegistry` to additionally
        stream every event into per-phase aggregates that survive
        ring-buffer eviction.
        """
        ring = RingBufferSink(capacity=capacity)
        sink = ring if registry is None else TeeSink((ring, registry))
        self.tracer = Tracer(sink)
        return ring


def resolve_context(
    context: RunContext | None = None, executor: object | None = None
) -> RunContext:
    """The context an algorithm call should run under.

    Preference order: the explicitly passed ``context``, then the
    executor's own context, then a fresh default.
    """
    if context is not None:
        return context
    ctx = getattr(executor, "context", None)
    if ctx is not None:
        return ctx
    return RunContext()
