"""Run helpers shared by benchmarks, examples, and the CLI.

One place that knows how to run any algorithm by name under an
executor, validate the coloring, and record the run — so every
benchmark stays a thin declaration of *what* to run. Executors come
from :meth:`RunContext.executor <repro.engine.context.RunContext.executor>`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import nullcontext
from typing import TYPE_CHECKING

from ..coloring.base import ColoringResult
from ..coloring.edge_centric import edge_centric_maxmin
from ..coloring.hybrid import hybrid_switch_coloring
from ..coloring.jones_plassmann import jones_plassmann_coloring
from ..coloring.kernels import GPUExecutor
from ..coloring.maxmin import maxmin_coloring
from ..coloring.partitioned import partitioned_coloring
from ..coloring.sequential import dsatur, greedy_first_fit, smallest_last, welsh_powell
from ..coloring.speculative import speculative_coloring
from ..engine.context import RunContext
from ..graphs.csr import CSRGraph

if TYPE_CHECKING:
    from ..store.recorder import Recorder

__all__ = [
    "GPU_ALGORITHMS",
    "CPU_ALGORITHMS",
    "run_gpu_coloring",
    "run_cpu_coloring",
]

#: GPU algorithms: name → callable(graph, executor, seed=...) → ColoringResult.
GPU_ALGORITHMS: dict[str, Callable[..., ColoringResult]] = {
    "maxmin": maxmin_coloring,
    "jp": jones_plassmann_coloring,
    "speculative": speculative_coloring,
    "hybrid-switch": hybrid_switch_coloring,
    "edge-centric": edge_centric_maxmin,
    "partitioned": partitioned_coloring,
}

#: CPU reference algorithms: name → callable(graph) → ColoringResult.
CPU_ALGORITHMS: dict[str, Callable[[CSRGraph], ColoringResult]] = {
    "greedy": lambda g: greedy_first_fit(g, order="natural"),
    "greedy-random": lambda g: greedy_first_fit(g, order="random"),
    "welsh-powell": welsh_powell,
    "smallest-last": smallest_last,
    "dsatur": dsatur,
}


def _trace_events(ctx: RunContext | None):
    """The retained ring-buffer events of a context's tracer, if any."""
    if ctx is None or ctx.tracer is None:
        return None
    from ..obs.sink import RingBufferSink, TeeSink

    sink = ctx.tracer.sink
    candidates = sink.sinks if isinstance(sink, TeeSink) else (sink,)
    for cand in candidates:
        if isinstance(cand, RingBufferSink):
            return cand.events
    return None


def run_gpu_coloring(
    graph: CSRGraph,
    algorithm: str = "maxmin",
    executor: GPUExecutor | None = None,
    *,
    seed: int | None = None,
    validate: bool = True,
    deep_validate: bool = False,
    context: RunContext | None = None,
    recorder: "Recorder | None" = None,
    dataset: str = "",
    scale: str = "",
    **kwargs,
) -> ColoringResult:
    """Run a GPU algorithm (timed when ``executor`` given) and validate.

    ``context`` is threaded through to the algorithm (seed fallback,
    array backend); when omitted it resolves from the executor. With no
    explicit ``seed`` the context's base seed applies — and since a
    fresh context defaults to seed 0, calls that pass neither stay as
    reproducible as they always were.

    ``deep_validate`` additionally runs the full :mod:`repro.check`
    invariant suite post-run — CSR structure, coloring invariants,
    result-history consistency, and (when the context traces into a
    ring buffer) the scheduler/trace validators — raising
    :class:`~repro.check.validators.CheckFailedError` on any violation.
    Validators only *read* the finished run, so a deep-validated run is
    cycle-identical to a plain one.

    With a ``recorder``, the validated result lands in the run store
    under the executor's *effective* configuration (digest-stable
    across call paths), tagged with ``dataset``/``scale`` and the host
    wall time of the run.
    """
    try:
        fn = GPU_ALGORITHMS[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown GPU algorithm {algorithm!r}; known: {sorted(GPU_ALGORITHMS)}"
        ) from None
    ctx = context if context is not None else getattr(executor, "context", None)
    tracer = ctx.tracer if ctx is not None else None
    # Open a phase span only at the outermost level: when a batch cell
    # (or another harness phase) is already open, its name keeps the
    # per-kernel attribution instead of collapsing every cell into one
    # "color:<algorithm>" bucket.
    span = (
        tracer.span(
            f"color:{algorithm}",
            algorithm=algorithm,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
        if tracer is not None and tracer.current_phase is None
        else nullcontext()
    )
    with span:
        t0 = time.perf_counter()
        result = fn(graph, executor, seed=seed, context=context, **kwargs)
        wall_ms = (time.perf_counter() - t0) * 1e3
        if validate:
            result.validate(graph)
    if deep_validate:
        from ..check.validators import validate_run

        device = ctx.device if ctx is not None else None
        validate_run(
            graph, result, events=_trace_events(ctx), device=device
        ).raise_on_error()
    if recorder is not None:
        cfg = executor.config if executor is not None else None
        recorder.record_run(
            graph=graph,
            result=result,
            seed=seed if seed is not None else (ctx.seed if ctx is not None else 0),
            dataset=dataset,
            scale=scale or None,
            mapping=cfg.mapping if cfg is not None else "thread",
            schedule=cfg.schedule if cfg is not None else "grid",
            config=cfg,
            algo_kwargs=kwargs or None,
            counters=executor.counters if executor is not None else None,
            wall_ms=wall_ms,
        )
    return result


def run_cpu_coloring(
    graph: CSRGraph,
    algorithm: str = "greedy",
    *,
    validate: bool = True,
    deep_validate: bool = False,
) -> ColoringResult:
    """Run a sequential reference algorithm and validate."""
    try:
        fn = CPU_ALGORITHMS[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown CPU algorithm {algorithm!r}; known: {sorted(CPU_ALGORITHMS)}"
        ) from None
    result = fn(graph)
    if validate:
        result.validate(graph)
    if deep_validate:
        from ..check.validators import validate_run

        validate_run(graph, result).raise_on_error()
    return result
