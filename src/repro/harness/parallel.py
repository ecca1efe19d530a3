"""Deterministic process-pool execution for batches, sweeps, and benches.

The paper's evaluation is a large grid of *independent* cells
(algorithm × graph × configuration), so the harness can use every host
core without perturbing a single simulated cycle: each cell runs in a
worker process with its own :class:`~repro.engine.context.RunContext`,
and results come back in submission order, so a ``--jobs 8`` run is
bit-identical to ``--jobs 1``.

Three pieces make that cheap and safe:

* :class:`SharedGraphStore` publishes each CSR graph **once** into
  POSIX shared memory; workers attach zero-copy views instead of
  receiving a pickled copy per task.  The store owns the segments and
  unlinks them on exit even when the pool dies mid-run.
* :func:`parallel_map` is a thin ordered ``ProcessPoolExecutor`` map
  with per-task payloads small enough to be spawn-safe (no reliance on
  fork-inherited globals).
* Workers that trace return their events and per-phase metrics, which
  the parent replays into its own sink *in job order* — one merged
  stream, as if the cells had run serially.

:func:`derive_seed` gives sweep drivers a stable per-task seed stream
that does not depend on worker scheduling.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from ..graphs.csr import CSRGraph

if TYPE_CHECKING:
    from ..engine.context import RunContext
    from ..gpusim.device import DeviceConfig
    from ..gpusim.memory import MemoryModel
    from ..store.recorder import Recorder, RecorderSpec
    from .batch import BatchJob

__all__ = [
    "SharedGraphRef",
    "SharedGraphStore",
    "attach_graph",
    "derive_seed",
    "parallel_map",
    "run_batch_parallel",
]


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-task seed: stable under any worker schedule.

    Tasks must not share the base seed (their RNG streams would
    correlate) nor draw from one sequential generator (the draw order
    would depend on scheduling).  Hashing ``(base, index)`` gives every
    task its own reproducible stream.
    """
    digest = hashlib.blake2b(
        f"repro-task-seed:{base_seed}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1  # non-negative int64


# ----------------------------------------------------------------------
# shared-memory graph store
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SharedGraphRef:
    """Picklable handle to a CSR graph published in shared memory.

    The segment holds ``indptr`` (int64, ``num_vertices + 1``) followed
    by ``indices`` (int32, ``2 * num_edges``).
    """

    shm_name: str
    num_vertices: int
    num_edges: int

    @property
    def indptr_bytes(self) -> int:
        return 8 * (self.num_vertices + 1)

    @property
    def indices_bytes(self) -> int:
        return 4 * (2 * self.num_edges)


class SharedGraphStore:
    """Publishes CSR graphs into shared memory, once each, and owns them.

    Use as a context manager around the worker pool: ``close()`` (or
    ``__exit__``) closes **and unlinks** every segment, including when a
    worker crashed and broke the pool — the OS then frees the memory as
    soon as the last surviving attachment drops.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._refs: dict[str, SharedGraphRef] = {}
        self._token = os.urandom(4).hex()

    def publish(self, key: str, graph: CSRGraph) -> SharedGraphRef:
        """Copy ``graph`` into a fresh segment (idempotent per key)."""
        if key in self._refs:
            return self._refs[key]
        indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(graph.indices, dtype=np.int32)
        name = f"repro-{os.getpid():x}-{self._token}-{len(self._refs)}"
        size = max(1, indptr.nbytes + indices.nbytes)
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        buf = np.ndarray(indptr.shape, dtype=np.int64, buffer=shm.buf)
        buf[:] = indptr
        buf2 = np.ndarray(
            indices.shape, dtype=np.int32, buffer=shm.buf, offset=indptr.nbytes
        )
        buf2[:] = indices
        ref = SharedGraphRef(
            shm_name=shm.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
        self._segments[key] = shm
        self._refs[key] = ref
        return ref

    def ref(self, key: str) -> SharedGraphRef:
        return self._refs[key]

    def close(self) -> None:
        """Close and unlink every published segment (idempotent)."""
        for shm in self._segments.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover - close never fails on Linux
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()
        self._refs.clear()

    def __enter__(self) -> "SharedGraphStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: worker-side cache: segment name -> (open segment, attached graph).
#: The SharedMemory object must outlive the arrays viewing its buffer.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, CSRGraph]] = {}

#: serializes attachment (cache fills and the py<3.12 tracker patch).
#: Concurrent attaches from server worker threads must not interleave
#: the save/patch/restore of ``resource_tracker.register``: two
#: unsynchronized patchers can capture each other's no-op lambda as the
#: "original" and leave tracker registration permanently disabled.
_ATTACH_LOCK = threading.Lock()

#: ``SharedMemory(..., track=False)`` exists from Python 3.12; earlier
#: versions need the tracker-register patch below.
_HAS_TRACK_KWARG = sys.version_info >= (3, 12)


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with the resource tracker.

    Plain attachment would register the segment with the resource
    tracker, which under fork is shared with the parent — the tracker
    would then unlink the parent-owned segment when any worker exits
    (and emit double-unregister noise when several attach).  The parent's
    :class:`SharedGraphStore` is the sole owner, so the attachment must
    stay untracked: natively via ``track=False`` on Python ≥ 3.12, via a
    lock-guarded ``register`` patch before that.  Callers hold
    :data:`_ATTACH_LOCK`.
    """
    if _HAS_TRACK_KWARG:
        return shared_memory.SharedMemory(name=name, track=False)
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register  # type: ignore[assignment]


def attach_graph(ref: SharedGraphRef) -> CSRGraph:
    """Zero-copy view of a published graph (cached, thread-safe).

    The returned :class:`CSRGraph` wraps arrays that alias the shared
    segment directly; nothing is copied and ``validate=False`` skips the
    structural re-check (the parent published a validated graph).
    """
    with _ATTACH_LOCK:
        cached = _ATTACHED.get(ref.shm_name)
        if cached is not None:
            return cached[1]
        shm = _open_untracked(ref.shm_name)
        indptr = np.ndarray(
            (ref.num_vertices + 1,), dtype=np.int64, buffer=shm.buf
        )
        indices = np.ndarray(
            (2 * ref.num_edges,),
            dtype=np.int32,
            buffer=shm.buf,
            offset=ref.indptr_bytes,
        )
        graph = CSRGraph(indptr, indices, validate=False)
        _ATTACHED[ref.shm_name] = (shm, graph)
        return graph


def _detach_all() -> None:
    """Drop every cached attachment (test hook / worker teardown)."""
    with _ATTACH_LOCK:
        for shm, _ in _ATTACHED.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover
                pass
        _ATTACHED.clear()


# ----------------------------------------------------------------------
# deterministic pool
# ----------------------------------------------------------------------


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
        "BatchJob", SharedGraphRef, "DeviceConfig", "MemoryModel", bool, bool,
        "RecorderSpec | None", str,
    ],
) -> tuple[dict[str, object], list[dict], dict]:
    """Run one batch cell in a worker: fresh context, shared graph.

    The worker context times on the parent context's device and memory
    model.

    When the payload carries a :class:`~repro.store.recorder.RecorderSpec`,
    the worker rebuilds a recorder on the shared WAL-mode database and
    records its own cell — concurrent writers, one store.
    """
    from ..engine.context import RunContext
    from ..obs.registry import MetricsRegistry
    from .batch import run_batch_cell

    job, ref, device, memory, deep_validate, trace, spec, scale = payload
    graph = attach_graph(ref)
    ctx = RunContext(device=device, memory=memory)
    ring = None
    registry = MetricsRegistry()
    if trace:
        ring = ctx.enable_tracing(registry=registry)
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
    phases = registry.phases if trace else {}
    return row, events, phases


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
    attached zero-copy in workers, and rows return in job order.  When
    ``context`` carries a tracer, worker trace events are
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
    with SharedGraphStore() as store:
        for job in jobs_list:
            if job.dataset not in store._refs:
                store.publish(job.dataset, build(job.dataset, scale))
        payloads = [
            (
                job, store.ref(job.dataset), parent.device, parent.memory,
                deep_validate, trace, spec, scale,
            )
            for job in jobs_list
        ]
        results = parallel_map(
            _batch_cell, payloads, jobs, start_method=start_method
        )
    rows: list[dict[str, object]] = []
    for row, events, _phases in results:
        rows.append(row)
        if trace and events:
            from ..obs.events import TraceEvent

            sink = context.tracer.sink  # type: ignore[union-attr]
            for payload in events:
                sink.emit(TraceEvent.from_dict(payload))
    return rows
