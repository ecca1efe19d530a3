"""Deterministic process-pool execution for batches, sweeps, and benches.

The paper's evaluation is a large grid of *independent* cells
(algorithm × graph × configuration), so the harness can use every host
core without perturbing a single simulated cycle: each cell runs in a
worker process with its own :class:`~repro.engine.context.RunContext`,
and results come back in submission order, so a ``--jobs 8`` run is
bit-identical to ``--jobs 1``.

* :func:`parallel_map` is a thin ordered ``ProcessPoolExecutor`` map
  whose payloads are plain picklable data, so it works under both the
  ``fork`` and ``spawn`` start methods.
* :func:`run_batch_parallel` builds each suite graph once in the parent
  and sends it to the workers inside each cell's payload.
* Workers that trace return their events, which the parent replays
  into its own sink *in job order* — one merged stream, as if the
  cells had run serially.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..engine.context import RunContext
    from ..gpusim.device import DeviceConfig
    from ..gpusim.memory import MemoryModel
    from ..graphs.csr import CSRGraph
    from ..store.recorder import Recorder, RecorderSpec
    from .batch import BatchJob

__all__ = [
    "parallel_map",
    "run_batch_parallel",
]


def parallel_map(
    fn: Callable[[Any], Any],
    payloads: Iterable[Any],
    jobs: int,
    *,
    start_method: str | None = None,
) -> list[Any]:
    """Ordered process-pool map: results align with ``payloads``.

    ``fn`` and every payload must be picklable (module-level function,
    plain-data arguments) so the pool works under both ``fork`` and
    ``spawn`` start methods.  ``jobs <= 1`` runs inline, which keeps
    single-job runs free of pool overhead and trivially identical.
    """
    items = list(payloads)
    if jobs <= 1 or len(items) <= 1:
        return [fn(p) for p in items]
    # imported here: ``import repro.cli`` should not pay for multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    ctx = get_context(start_method) if start_method else None
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)), mp_context=ctx
    ) as pool:
        return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# parallel batch execution
# ----------------------------------------------------------------------


def _batch_cell(
    payload: tuple[
        "BatchJob", "CSRGraph", "DeviceConfig", "MemoryModel", bool, bool,
        "RecorderSpec | None", str,
    ],
) -> tuple[dict[str, object], list[dict]]:
    """Run one batch cell in a worker on a fresh context.

    The worker context times on the parent context's device and memory
    model.

    When the payload carries a :class:`~repro.store.recorder.RecorderSpec`,
    the worker rebuilds a recorder on the shared WAL-mode database and
    records its own cell — concurrent writers, one store.
    """
    from ..engine.context import RunContext
    from .batch import run_batch_cell

    job, graph, device, memory, deep_validate, trace, spec, scale = payload
    ctx = RunContext(device=device, memory=memory)
    ring = ctx.enable_tracing() if trace else None
    recorder = spec.build() if spec is not None else None
    try:
        row = run_batch_cell(
            job, graph, ctx,
            deep_validate=deep_validate,
            recorder=recorder,
            scale=scale,
        )
    finally:
        if recorder is not None:
            recorder.close()
    events = [e.to_dict() for e in ring.events] if ring is not None else []
    return row, events


def run_batch_parallel(
    jobs_list: Sequence["BatchJob"],
    *,
    scale: str,
    jobs: int,
    deep_validate: bool = False,
    context: "RunContext | None" = None,
    start_method: str | None = None,
    recorder: "Recorder | None" = None,
) -> list[dict[str, object]]:
    """Execute batch cells across ``jobs`` worker processes.

    Bit-identical to the serial runner: every cell is self-contained
    (a fresh worker context on ``context``'s device and memory model —
    a default :class:`~repro.engine.context.RunContext` when omitted —
    and an explicit seed), graphs are built once in the parent and
    sent to the workers in each cell's payload, and rows return in job
    order.  When ``context`` carries a tracer, worker trace events are
    replayed into its sink in job order — including any
    :class:`~repro.obs.registry.MetricsRegistry` teed onto it — so the
    merged stream matches a serial traced run cell for cell.

    A ``recorder`` crosses into the workers as its picklable spec:
    every worker opens the same sqlite database (WAL mode) and records
    its own cells, exercising genuinely concurrent writes while the
    content-keyed upsert keeps the stored row set identical to serial.
    """
    from ..engine.context import RunContext
    from .suite import SUITE, build

    parent = context if context is not None else RunContext()
    for job in jobs_list:
        if job.dataset not in SUITE:
            raise KeyError(f"unknown dataset {job.dataset!r}")
    trace = context is not None and context.tracer is not None
    spec = recorder.spec if recorder is not None else None
    payloads = [
        (
            job, build(job.dataset, scale), parent.device, parent.memory,
            deep_validate, trace, spec, scale,
        )
        for job in jobs_list
    ]
    results = parallel_map(_batch_cell, payloads, jobs, start_method=start_method)
    rows: list[dict[str, object]] = []
    for row, events in results:
        rows.append(row)
        if trace and events:
            from ..obs.events import TraceEvent

            sink = context.tracer.sink  # type: ignore[union-attr]
            for payload in events:
                sink.emit(TraceEvent.from_dict(payload))
    return rows
