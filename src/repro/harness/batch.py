"""Batch runner — execute a configuration matrix and export the results.

Turns "run these algorithms × configurations over these datasets" into
one call that returns tidy rows and can persist them as JSON or CSV —
the glue between the library and external analysis (spreadsheets,
plotting, CI dashboards).
"""

from __future__ import annotations

import csv
import json
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..engine.context import RunContext
from .runner import run_gpu_coloring
from .suite import SUITE, build

if TYPE_CHECKING:
    from ..store.recorder import Recorder

__all__ = [
    "BatchJob",
    "run_batch",
    "run_batch_cell",
    "save_rows_json",
    "save_rows_csv",
    "sweep_config",
]


@dataclass(frozen=True)
class BatchJob:
    """One cell of the run matrix."""

    dataset: str
    algorithm: str = "maxmin"
    mapping: str = "thread"
    schedule: str = "grid"
    seed: int = 0
    config: dict = field(default_factory=dict)
    label: str | None = None

    @property
    def name(self) -> str:
        return self.label or (
            f"{self.dataset}/{self.algorithm}:{self.mapping}+{self.schedule}"
        )


def sweep_config(parameter: str, value: int) -> dict[str, int]:
    """The execution-config fields of one point of a one-parameter sweep.

    A ``workgroup_size`` point also sets ``chunk_size = max(256, value)``,
    so ``chunk_size`` stays the multiple of ``workgroup_size`` that
    :class:`~repro.coloring.kernels.ExecutionConfig` requires.
    """
    config = {parameter: value}
    if parameter == "workgroup_size":
        config["chunk_size"] = max(256, value)
    return config


def run_batch_cell(
    job: BatchJob,
    graph,
    ctx: RunContext,
    *,
    deep_validate: bool = False,
    recorder: "Recorder | None" = None,
    scale: str = "",
) -> dict[str, object]:
    """Run one cell of the matrix under ``ctx`` and return its row.

    Shared by the serial loop and the process-pool workers
    (:mod:`repro.harness.parallel`), so both paths report identical
    rows by construction. The cell times on ``ctx.device``.

    With a ``recorder``, :func:`~repro.harness.runner.run_gpu_coloring`
    also lands the cell in the run store (with its host wall time); the
    returned row is unchanged either way, so recorded and unrecorded
    batches stay bit-identical.
    """
    executor = ctx.executor(mapping=job.mapping, schedule=job.schedule, **job.config)
    span = (
        ctx.tracer.span(job.name, dataset=job.dataset, algorithm=job.algorithm)
        if ctx.tracer is not None
        else nullcontext()
    )
    with span:
        result = run_gpu_coloring(
            graph,
            job.algorithm,
            executor,
            seed=job.seed,
            deep_validate=deep_validate,
            recorder=recorder,
            dataset=job.dataset,
            scale=scale,
        )
    return {
        "job": job.name,
        "dataset": job.dataset,
        "algorithm": job.algorithm,
        "mapping": job.mapping,
        "schedule": job.schedule,
        "seed": job.seed,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "colors": result.num_colors,
        "iterations": result.num_iterations,
        "cycles": result.total_cycles,
        "time_ms": result.time_ms,
        "simd_eff": executor.counters.mean_simd_efficiency,
        "launch_fraction": executor.counters.launch_overhead_fraction,
    }


def run_batch(
    jobs: Sequence[BatchJob],
    *,
    scale: str = "small",
    context: RunContext | None = None,
    deep_validate: bool = False,
    parallel_jobs: int = 1,
    recorder: "Recorder | None" = None,
) -> list[dict[str, object]]:
    """Run every job, validating each coloring; returns one row per job.

    Every cell times on the context's device and memory model (a fresh
    default :class:`~repro.engine.context.RunContext` when ``context``
    is omitted). With ``parallel_jobs <= 1`` all jobs share that
    context: ``context.counters`` aggregates the whole matrix while each
    row still reports its own executor's window.

    With ``parallel_jobs > 1`` the cells run across that many worker
    processes (see :func:`repro.harness.parallel.run_batch_parallel`):
    each cell gets a fresh worker context on the same device and memory
    model, each graph is built once in the parent and sent with its
    cells, rows come back in job order, and — because every cell is
    self-contained — the rows are bit-identical to a serial run.
    A tracer on ``context`` still receives every worker's events, merged
    in job order; ``context.counters`` does not aggregate across
    processes.

    ``deep_validate`` runs the full :mod:`repro.check` invariant suite
    on every cell (see :func:`~repro.harness.runner.run_gpu_coloring`);
    the first violating cell raises, naming the job.

    With a ``recorder``, every cell also lands in the run store. In
    parallel mode each worker rebuilds the recorder from its picklable
    spec and writes its own cells concurrently (WAL mode); the
    content-keyed upsert keeps the recorded row set identical to a
    serial run.
    """
    ctx = context if context is not None else RunContext()
    if parallel_jobs > 1:
        from .parallel import run_batch_parallel

        return run_batch_parallel(
            jobs,
            scale=scale,
            jobs=parallel_jobs,
            deep_validate=deep_validate,
            context=ctx,
            recorder=recorder,
        )
    rows: list[dict[str, object]] = []
    for job in jobs:
        if job.dataset in SUITE:
            graph = build(job.dataset, scale)
        else:
            raise KeyError(f"unknown dataset {job.dataset!r}")
        rows.append(
            run_batch_cell(
                job,
                graph,
                ctx,
                deep_validate=deep_validate,
                recorder=recorder,
                scale=scale,
            )
        )
    return rows


def save_rows_json(rows: list[dict[str, object]], path: str | Path) -> None:
    """Persist batch rows as a JSON array."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(rows, indent=2, default=lambda o: getattr(o, "item", str)(o)))


def save_rows_csv(rows: list[dict[str, object]], path: str | Path) -> None:
    """Persist batch rows as CSV (columns from the first row)."""
    if not rows:
        raise ValueError("no rows to save")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
