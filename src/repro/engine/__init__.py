"""Execution-engine layer: run context, array backends, cached plans.

The three pieces every run is assembled from:

* :class:`~repro.engine.context.RunContext` — device, memory model,
  seed, backend, and the counter/trace sinks, threaded explicitly
  through algorithms, executor, harness, and CLI.
* :class:`~repro.engine.backend.ArrayBackend` — the neighborhood
  primitives behind ``RunContext.backend``: one NumPy implementation,
  and a seam where a test or profiler can substitute its own.
* :class:`~repro.engine.plan.ExecutionPlan` /
  :class:`~repro.engine.plan.PlanCache` — memoized per-iteration work
  distributions (degree partitions, chunk ranges, wavefront costs).
"""

from .backend import ArrayBackend, NumpyBackend, make_backend
from .context import RunContext, resolve_context
from .plan import (
    ExecutionPlan,
    PlanCache,
    build_plan,
    coop_efficiency,
    degrees_fingerprint,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "make_backend",
    "RunContext",
    "resolve_context",
    "ExecutionPlan",
    "PlanCache",
    "build_plan",
    "coop_efficiency",
    "degrees_fingerprint",
]
