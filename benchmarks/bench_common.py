"""Shared infrastructure for the experiment benchmarks (E1–E11).

Each ``bench_e*.py`` regenerates one reconstructed table/figure of the
paper: it computes the rows/series, prints them, writes them to
``benchmarks/results/``, asserts the *shape* criterion from DESIGN.md,
and records an :class:`~repro.analysis.experiment.ExperimentRecord` in
the run store (``scripts/render_experiments.py`` turns the newest
verdicts into ``benchmarks/results/experiments.json`` and the
EXPERIMENTS.md table).

Scale defaults to ``standard`` (the paper-like sizes); set
``REPRO_BENCH_SCALE=small`` for a quick pass. Runs are cached per
process so experiments sharing a baseline don't recompute it. Set
``REPRO_BENCH_TRACE=1`` to run every benchmark under an attached
tracer (events land in a bounded ring; cycles are unchanged — see
``bench_obs_overhead.py`` for the proof). Set ``REPRO_BENCH_JOBS=N``
to let drivers that batch independent cells (``batch_rows``,
``bench_parallel_harness.py``) spread them over N worker processes —
results are bit-identical for any N.

Every run and verdict lands in the sqlite run store
(``benchmarks/results/runs.sqlite`` — see :mod:`repro.store`), keyed
by content so re-runs dedupe. Point ``REPRO_RUN_STORE`` at another
file to redirect, or set it to ``0``/``off`` to disable.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis.experiment import ExperimentRecord
from repro.coloring.base import ColoringResult
from repro.engine.context import RunContext
from repro.gpusim.device import RADEON_HD_7950
from repro.harness.runner import run_gpu_coloring
from repro.harness.suite import build
from repro.store import Recorder, store_path_from_env

RESULTS_DIR = Path(__file__).parent / "results"
SCALE = os.environ.get("REPRO_BENCH_SCALE", "standard")
TRACE = os.environ.get("REPRO_BENCH_TRACE", "") not in ("", "0")
#: worker processes for drivers that batch independent cells (1 = serial)
JOBS = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1"))
DEVICE = RADEON_HD_7950

_RUN_CACHE: dict[tuple, ColoringResult] = {}

_STORE_PATH = store_path_from_env(RESULTS_DIR / "runs.sqlite")
#: the benchmark session's recorder (``None`` when recording is off).
RECORDER: Recorder | None = (
    Recorder(str(_STORE_PATH), scale=SCALE, source="bench")
    if _STORE_PATH is not None
    else None
)


def batch_rows(jobs, *, parallel_jobs: int | None = None) -> list[dict[str, object]]:
    """Run a list of :class:`~repro.harness.batch.BatchJob` cells.

    Honors :data:`JOBS` (the ``REPRO_BENCH_JOBS`` knob) unless
    ``parallel_jobs`` overrides it.  Rows are bit-identical for any
    worker count; see :func:`repro.harness.batch.run_batch`.
    """
    from repro.harness.batch import run_batch

    n = JOBS if parallel_jobs is None else parallel_jobs
    return run_batch(
        jobs,
        scale=SCALE,
        context=RunContext(device=DEVICE),
        parallel_jobs=n,
        recorder=RECORDER,
    )


def timed_run(
    dataset: str,
    algorithm: str = "maxmin",
    *,
    mapping: str = "thread",
    schedule: str = "grid",
    seed: int = 0,
    algo_kwargs: dict | None = None,
    **config_kwargs,
) -> ColoringResult:
    """Run (or fetch cached) a validated, timed coloring.

    ``config_kwargs`` go to the :class:`ExecutionConfig` (e.g.
    ``chunk_size``); ``algo_kwargs`` go to the algorithm itself (e.g.
    ``switch_fraction`` for ``hybrid-switch``).
    """
    algo_kwargs = algo_kwargs or {}
    key = (
        dataset,
        SCALE,
        algorithm,
        mapping,
        schedule,
        seed,
        tuple(sorted(config_kwargs.items())),
        tuple(sorted(algo_kwargs.items())),
    )
    if key not in _RUN_CACHE:
        graph = build(dataset, SCALE)
        context = RunContext(device=DEVICE)
        if TRACE:
            context.enable_tracing()
        executor = context.executor(mapping=mapping, schedule=schedule, **config_kwargs)
        _RUN_CACHE[key] = run_gpu_coloring(
            graph,
            algorithm,
            executor,
            seed=seed,
            context=context,
            recorder=RECORDER,
            dataset=dataset,
            scale=SCALE,
            **algo_kwargs,
        )
    return _RUN_CACHE[key]


def emit(experiment_id: str, text: str) -> None:
    """Print a report block and persist it under ``benchmarks/results``."""
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{experiment_id.lower()}.txt").write_text(text + "\n")


def record(
    experiment_id: str,
    paper_artifact: str,
    paper_claim: str,
    measured: str,
    shape_holds: bool,
    **details,
) -> None:
    """Upsert this experiment's reproduction verdict into the run store."""
    rec = ExperimentRecord(
        experiment_id=experiment_id,
        paper_artifact=paper_artifact,
        paper_claim=paper_claim,
        measured=measured,
        shape_holds=shape_holds,
        details=details,
    )
    if RECORDER is not None:
        RECORDER.record_experiment(rec)
