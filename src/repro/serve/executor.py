"""Job executor — worker threads draining the ledger onto the harness.

The executor owns a queue of job ids and ``workers`` daemon threads.
Each thread opens its *own* :class:`~repro.store.db.RunStore`
connection (sqlite connections are thread-bound; WAL mode makes the
concurrent writers safe) and runs jobs through the ordinary harness
entry points — :func:`~repro.harness.batch.run_batch_cell` serially,
:func:`~repro.harness.batch.run_batch` with ``parallel_jobs`` when the
server was given ``--job-workers N`` — so a row recorded through the
server is bit-identical to one recorded by ``repro batch``/``repro
pipeline run``.

Lifecycle is cooperative: cancellation raises a flag the worker checks
between cells (a simulated kernel is not interruptible, a cell
boundary is), and every state transition is written to the ``jobs``
table *before* the work it describes, so a crash at any point leaves a
row ``--recover`` knows how to re-queue.

Each job runs traced into its own
:class:`~repro.obs.registry.MetricsRegistry`; on completion the
per-job aggregates are merged into the server-wide registry that
``/metrics`` serves. Tracing is cycle-identical (see
:mod:`repro.obs`), so the rows still match untraced serial runs.

Set :envvar:`REPRO_SERVE_TEST_DELAY_MS` to sleep that long after every
cell — a test hook that widens the window for exercising mid-job
cancellation and kill/recover without flaky timing.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from typing import TYPE_CHECKING

from ..engine.context import RunContext
from ..gpusim.device import named_device
from ..harness.batch import run_batch, run_batch_cell
from ..harness.suite import build
from ..obs.registry import MetricsRegistry
from ..store.db import RunStore, _jsonable, _utcnow
from ..store.recorder import Recorder
from .model import expand_spec

if TYPE_CHECKING:
    from ..graphs.csr import CSRGraph

__all__ = ["JobExecutor"]

#: queue sentinel that tells one worker thread to exit.
_STOP = object()

#: test hook: per-cell sleep, in milliseconds (see module docstring).
DELAY_ENV = "REPRO_SERVE_TEST_DELAY_MS"


def _test_delay_s() -> float:
    raw = os.environ.get(DELAY_ENV, "").strip()
    try:
        return max(0.0, float(raw)) / 1e3 if raw else 0.0
    except ValueError:
        return 0.0


class JobExecutor:
    """Runs queued jobs from the store's ledger (see module docstring)."""

    def __init__(
        self,
        store_path: str,
        *,
        registry: MetricsRegistry | None = None,
        workers: int = 1,
        job_workers: int = 1,
    ) -> None:
        self.store_path = str(store_path)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.workers = max(1, int(workers))
        self.job_workers = max(1, int(job_workers))
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight: set[str] = set()
        self._cancel: dict[str, threading.Event] = {}
        self._threads: list[threading.Thread] = []
        self.counters: dict[str, int] = {
            "submitted": 0,
            "deduped": 0,
            "recovered": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "cells_run": 0,
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def stop(self, timeout: float = 10.0) -> None:
        """Ask every worker to exit and join them (idempotent)."""
        for _ in self._threads:
            self._queue.put(_STOP)
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads.clear()

    # -- submission and control ----------------------------------------

    def submit(self, job_id: str, *, counter: str = "submitted") -> None:
        """Enqueue a job the caller already inserted into the ledger."""
        with self._idle:
            self._inflight.add(job_id)
            self.counters[counter] += 1
        self._queue.put(job_id)

    def cancel(self, job_id: str) -> None:
        """Raise the cancel flag; the worker honors it between cells."""
        self._cancel_event(job_id).set()

    def _cancel_event(self, job_id: str) -> threading.Event:
        with self._lock:
            event = self._cancel.get(job_id)
            if event is None:
                event = self._cancel[job_id] = threading.Event()
            return event

    @property
    def inflight(self) -> int:
        """Jobs enqueued or executing right now."""
        with self._lock:
            return len(self._inflight)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running; False on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: not self._inflight, timeout=timeout)

    def merge_registry(self, job_registry: MetricsRegistry) -> None:
        with self._lock:
            self.registry.merge(job_registry)

    def registry_snapshot(self) -> dict[str, object]:
        with self._lock:
            return self.registry.to_dict()

    def counters_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counters)

    def _bump(self, counter: str, n: int = 1) -> None:
        with self._lock:
            self.counters[counter] += n

    # -- execution ------------------------------------------------------

    def _worker(self) -> None:
        store = RunStore(self.store_path)
        try:
            while True:
                item = self._queue.get()
                if item is _STOP:
                    return
                try:
                    self._execute(store, item)
                except Exception as exc:  # noqa: BLE001 - job isolation
                    self._fail(store, item, exc)
                finally:
                    with self._idle:
                        self._inflight.discard(item)
                        self._cancel.pop(item, None)
                        self._idle.notify_all()
        finally:
            store.close()

    def _fail(self, store: RunStore, job_id: str, exc: Exception) -> None:
        self._bump("failed")
        try:
            store.update_job(
                job_id,
                state="failed",
                error=f"{type(exc).__name__}: {exc}",
                finished_at=_utcnow(),
            )
        except Exception:  # noqa: BLE001 - the ledger itself is down
            pass

    def _execute(self, store: RunStore, job_id: str) -> None:
        job = store.job(job_id)
        if job is None or job["state"] != "queued":
            # cancelled (or otherwise finalized) while waiting in queue
            return
        event = self._cancel_event(job_id)
        if event.is_set():
            self._bump("cancelled")
            store.update_job(job_id, state="cancelled", finished_at=_utcnow())
            return
        store.update_job(
            job_id,
            state="running",
            attempts=int(job["attempts"]) + 1,
            started_at=_utcnow(),
            error="",
        )
        spec = json.loads(job["spec"])
        plan = expand_spec(spec)
        ctx = RunContext(device=named_device(plan.device))
        job_registry = MetricsRegistry()
        # small ring: /metrics only needs the registry's exact aggregates
        ctx.enable_tracing(capacity=256, registry=job_registry)
        recorder = Recorder(store, scale=plan.scale, source="serve")
        delay = _test_delay_s()
        graphs: dict[str, CSRGraph] = {}
        rows: list[dict[str, object]] = []
        cancelled = False
        for source, cells in plan.groups:
            group_recorder = recorder.with_source(source)
            chunk = self.job_workers
            for lo in range(0, len(cells), chunk):
                if event.is_set():
                    cancelled = True
                    break
                part = list(cells[lo : lo + chunk])
                if self.job_workers > 1 and len(part) > 1:
                    rows.extend(
                        run_batch(
                            part,
                            scale=plan.scale,
                            context=ctx,
                            parallel_jobs=self.job_workers,
                            recorder=group_recorder,
                        )
                    )
                else:
                    for cell in part:
                        graph = graphs.get(cell.dataset)
                        if graph is None:
                            graph = graphs[cell.dataset] = build(
                                cell.dataset, plan.scale
                            )
                        rows.append(
                            run_batch_cell(
                                cell,
                                graph,
                                ctx,
                                recorder=group_recorder,
                                scale=plan.scale,
                            )
                        )
                if delay:
                    time.sleep(delay)
                store.update_job(job_id, cells_done=len(rows))
            if cancelled:
                break
        if cancelled:
            self._bump("cancelled")
            store.update_job(
                job_id,
                state="cancelled",
                finished_at=_utcnow(),
                cells_done=len(rows),
            )
        else:
            self._bump("completed")
            self._bump("cells_run", len(rows))
            store.update_job(
                job_id,
                state="done",
                finished_at=_utcnow(),
                result=json.dumps(_jsonable(rows)),
                cells_done=len(rows),
            )
        self.merge_registry(job_registry)
