"""Execution-engine layer: run context, array backends, execution plans.

The three pieces every run is assembled from:

* :class:`~repro.engine.context.RunContext` — device, memory model,
  seed, backend, and the counter/trace sinks, threaded explicitly
  through algorithms, executor, harness, and CLI.
* :class:`~repro.engine.backend.ArrayBackend` — the neighborhood
  primitives behind ``RunContext.backend``: one NumPy implementation,
  and a seam where a test or profiler can substitute its own.
* :class:`~repro.engine.plan.ExecutionPlan` — per-kernel work
  distributions (degree partitions, chunk costs, wavefront costs),
  derived a timing window at a time by
  :func:`~repro.engine.plan.build_plans`.
"""

from .backend import ArrayBackend, NumpyBackend, make_backend
from .context import RunContext, resolve_context
from .plan import ExecutionPlan, build_plan, coop_efficiency

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "make_backend",
    "RunContext",
    "resolve_context",
    "ExecutionPlan",
    "build_plan",
    "coop_efficiency",
]
