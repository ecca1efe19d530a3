"""Simulated-race detector — prove where the benign races live.

The speculative kernel's whole design is a *deliberate* data race:
active vertices first-fit color themselves against a snapshot while
their neighbors do the same, and a separate detection kernel repairs
the collisions (paper stages E2/E5). Independent-set algorithms
(Jones–Plassmann, max-min) are supposed to be race-free by
construction. Nothing in the repo proved either claim — this module
does.

The mechanism is an access log over the certified kernel specs
themselves: :class:`AccessLoggingLauncher` runs every
:data:`~repro.coloring.device_kernels.DEVICE_KERNELS` spec once per
thread, in the reference interpreter's order, and records each
global-array element access into an :class:`AccessLog` — per array,
per element index, tagged with the issuing SIMT thread, its
wavefront, and the kernel step. Kernel launches are sync edges
(``AccessLog.next_step``), so two accesses can only race when they hit
the same element of the same array, in the same step, from *different
wavefronts*, at least one is a write, and they are not both atomic.

Wavefront granularity matches the machine model: lanes of one
wavefront execute in lockstep, so intra-wavefront interleavings cannot
produce the read-stale-then-write hazards the conflict-resolution
cycle exists to repair.

:func:`scan_algorithm_races` drives the kernel-launch host loops of
:func:`repro.coloring.interp.run_coloring` through that launcher and
classifies findings against each algorithm's declared *expected-racy*
arrays — the speculative family must localize every race to
``colors``; a race anywhere else, or any race at all under
Jones–Plassmann, max-min or edge-centric, is a bug.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from ..coloring.device_kernels import DEVICE_KERNELS
from ..coloring.interp import INTERP_ALGORITHMS, launch_order, run_coloring
from ..graphs.csr import CSRGraph
from .concurrency import (
    DEFAULT_WAVEFRONT_SIZE,
    classify_bucket,
    expected_racy,
    inplace_arrays,
    logical_array,
    wavefront_of,
)

__all__ = [
    "Access",
    "AccessLog",
    "AccessLoggingLauncher",
    "RaceFinding",
    "RaceScan",
    "detect_races",
    "scan_algorithm_races",
]


@dataclass(frozen=True)
class Access:
    """One logical element access (sample of a finding, not the log form)."""

    array: str
    index: int
    kind: str  # "r" | "w"
    thread: int
    wavefront: int
    step: int
    atomic: bool = False


@dataclass
class _StepLog:
    """Vectorized access columns for one (array, step) bucket."""

    indices: list[np.ndarray] = field(default_factory=list)
    threads: list[np.ndarray] = field(default_factory=list)
    writes: list[np.ndarray] = field(default_factory=list)
    atomics: list[np.ndarray] = field(default_factory=list)


class AccessLog:
    """Records per-array-index reads/writes tagged by wavefront and step.

    ``thread_ids`` are logical SIMT thread ids (position in the kernel's
    work assignment); the log derives wavefronts as
    ``thread // wavefront_size``. Calls are vectorized: one
    :meth:`read`/:meth:`write` records a whole index array at once.

    Accesses of different steps never race, so each (array, step)
    bucket is classified when its step closes (:meth:`next_step`) and
    only the accesses of its racy elements are kept, in logged order.
    Memory is bounded by one step's accesses plus the racy elements.
    """

    def __init__(self, wavefront_size: int = DEFAULT_WAVEFRONT_SIZE) -> None:
        if wavefront_size <= 0:
            raise ValueError("wavefront_size must be positive")
        self.wavefront_size = wavefront_size
        self.step = 0
        self.step_names: list[str] = ["step0"]
        self._open: dict[str, _StepLog] = {}  # this step's buckets
        self._racy: dict[tuple[str, int], tuple[np.ndarray, ...]] = {}  # closed steps
        self._arrays: set[str] = set()
        self.total_accesses = 0

    def next_step(self, name: str = "") -> int:
        """Advance past a kernel-launch boundary (a global sync edge)."""
        for array, bucket in self._open.items():
            racy = self._racy_columns(bucket)
            if racy is not None:
                self._racy[(array, self.step)] = racy
        self._open = {}
        self.step += 1
        self.step_names.append(name or f"step{self.step}")
        return self.step

    def _record(
        self,
        array: str,
        indices: np.ndarray,
        threads: np.ndarray,
        *,
        write: bool,
        atomic: bool,
    ) -> None:
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64)).ravel()
        tid = np.atleast_1d(np.asarray(threads, dtype=np.int64)).ravel()
        if tid.size == 1 and idx.size > 1:
            tid = np.full(idx.size, tid[0], dtype=np.int64)
        if idx.shape != tid.shape:
            raise ValueError("indices and thread ids must align")
        if idx.size == 0:
            return
        bucket = self._open.setdefault(array, _StepLog())
        bucket.indices.append(idx)
        bucket.threads.append(tid)
        bucket.writes.append(np.full(idx.size, write))
        bucket.atomics.append(np.full(idx.size, atomic))
        self._arrays.add(array)
        self.total_accesses += idx.size

    def read(
        self,
        array: str,
        indices: np.ndarray,
        threads: np.ndarray,
        *,
        atomic: bool = False,
    ) -> None:
        self._record(array, indices, threads, write=False, atomic=atomic)

    def write(
        self,
        array: str,
        indices: np.ndarray,
        threads: np.ndarray,
        *,
        atomic: bool = False,
    ) -> None:
        self._record(array, indices, threads, write=True, atomic=atomic)

    @property
    def arrays(self) -> list[str]:
        return sorted(self._arrays)

    def _racy_columns(self, bucket: _StepLog) -> tuple[np.ndarray, ...] | None:
        """The bucket's accesses to its racy elements, or ``None`` if it has none."""
        idx, tid, wr, at = (
            np.concatenate(parts)
            for parts in (bucket.indices, bucket.threads, bucket.writes, bucket.atomics)
        )
        racy = classify_bucket(idx, wavefront_of(tid, self.wavefront_size), wr, at)
        if not racy.starts.size:
            return None
        # mark each racy element's run of the sorted accesses, then map back
        edges = np.zeros(idx.size + 1, dtype=np.int64)
        edges[racy.starts] = 1
        edges[racy.starts + racy.sizes] -= 1
        keep = np.zeros(idx.size, dtype=bool)
        keep[racy.order[np.cumsum(edges[:-1]) > 0]] = True
        return idx[keep], tid[keep], wr[keep], at[keep]

    def _racy_buckets(self) -> Iterator[tuple[Any, ...]]:
        """Yield ``(array, step, indices, threads, writes, atomics)`` of every
        bucket's racy elements in (array, step) order; the open step's
        buckets are classified here without being closed."""
        buckets = dict(self._racy)
        for array, bucket in self._open.items():
            racy = self._racy_columns(bucket)
            if racy is not None:
                buckets[(array, self.step)] = racy
        for (array, step), columns in sorted(buckets.items()):
            yield (array, step, *columns)


@dataclass(frozen=True)
class RaceFinding:
    """Conflicting same-step accesses to one element from ≥2 wavefronts."""

    array: str
    index: int
    step: int
    step_name: str
    num_accesses: int
    num_wavefronts: int
    has_write_write: bool
    expected: bool  # declared benign for the scanned algorithm
    samples: tuple[Access, ...] = ()

    def describe(self) -> str:
        kind = "write/write" if self.has_write_write else "read/write"
        tag = "expected" if self.expected else "UNEXPECTED"
        return (
            f"[{tag}] {kind} race on {self.array}[{self.index}] in "
            f"{self.step_name}: {self.num_accesses} accesses from "
            f"{self.num_wavefronts} wavefronts"
        )


def detect_races(
    log: AccessLog,
    *,
    expected_racy: frozenset[str] | set[str] = frozenset(),
    max_findings_per_array: int = 50,
    counts_out: dict[str, int] | None = None,
) -> list[RaceFinding]:
    """Flag same-step, cross-wavefront conflicts lacking an atomic edge.

    The conflict rule itself (same element + same step + ≥2 wavefronts
    + ≥1 write + not all-atomic) is the shared
    :func:`repro.check.concurrency.classify_bucket` definition — the
    static verifier proves against the same rule. Findings on arrays
    in ``expected_racy`` are kept but marked ``expected`` — the
    caller's proof is "every race is expected".

    At most ``max_findings_per_array`` findings are materialized per
    array; ``counts_out`` (when given) receives the *full* per-array
    racy-element counts so truncation is never silent.
    """
    findings: list[RaceFinding] = []
    per_array: dict[str, int] = {} if counts_out is None else counts_out
    for array, step, idx, tid, wr, at in log._racy_buckets():
        wf = wavefront_of(tid, log.wavefront_size)
        racy = classify_bucket(idx, wf, wr, at)  # every element of these is racy
        count = per_array.get(array, 0)
        per_array[array] = count + racy.starts.size
        keep = min(racy.starts.size, max_findings_per_array - count)
        for k in range(keep):
            s, size = int(racy.starts[k]), int(racy.sizes[k])
            # the element's first accesses, in the order they were logged
            first = np.sort(racy.order[s : s + size])[:4]
            samples = tuple(
                Access(
                    array=array,
                    index=int(idx[j]),
                    kind="w" if wr[j] else "r",
                    thread=int(tid[j]),
                    wavefront=int(wf[j]),
                    step=step,
                    atomic=bool(at[j]),
                )
                for j in first
            )
            findings.append(
                RaceFinding(
                    array=array,
                    index=int(idx[first[0]]),
                    step=step,
                    step_name=log.step_names[step],
                    num_accesses=size,
                    num_wavefronts=int(racy.num_wavefronts[k]),
                    has_write_write=bool(racy.has_write_write[k]),
                    expected=array in expected_racy,
                    samples=samples,
                )
            )
    return findings


@dataclass
class RaceScan:
    """Outcome of running one algorithm's kernels under the access log."""

    algorithm: str
    findings: list[RaceFinding]
    expected_racy: frozenset[str]
    total_accesses: int
    steps: int
    arrays: list[str]
    colors: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    truncated: dict[str, int] = field(default_factory=dict)

    @property
    def unexpected(self) -> list[RaceFinding]:
        return [f for f in self.findings if not f.expected]

    @property
    def expected(self) -> list[RaceFinding]:
        return [f for f in self.findings if f.expected]

    @property
    def racy_arrays(self) -> list[str]:
        return sorted({f.array for f in self.findings})

    @property
    def ok(self) -> bool:
        """True when every detected race is a declared-benign one."""
        return not self.unexpected

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        lines = [
            f"races:{self.algorithm}: {status} — {self.total_accesses} accesses "
            f"over {self.steps} kernel steps, {len(self.findings)} racy elements "
            f"({len(self.unexpected)} unexpected) on arrays "
            f"{self.racy_arrays or '[]'}"
        ]
        lines += [f"  {f.describe()}" for f in self.unexpected[:10]]
        shown = min(3, len(self.expected))
        lines += [f"  {f.describe()}" for f in self.expected[:shown]]
        if len(self.expected) > shown:
            lines.append(f"  ... and {len(self.expected) - shown} more expected")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the access-logging launcher
# ----------------------------------------------------------------------


class _LoggedArray:
    """A global array that notes every element access of the running thread.

    Each access appends its index and a code (``2 * slot`` read,
    ``2 * slot + 1`` write) to launch-wide lists; the launcher marks
    where each thread's accesses end. Reads come from ``values``, a list
    mirror shared by all parameters bound to the array and updated with
    each stored value: a list read costs a third of a NumPy scalar read.
    """

    __slots__ = ("_array", "_values", "_read", "_write", "_index", "_kind")

    def __init__(self, array: np.ndarray, values: list, slot: int, indices: list, kinds: list):
        self._array = array
        self._values = values
        self._read, self._write = 2 * slot, 2 * slot + 1
        self._index = indices.append
        self._kind = kinds.append

    def __getitem__(self, i: Any) -> Any:
        self._index(i)
        self._kind(self._read)
        return self._values[i]

    def __setitem__(self, i: Any, value: Any) -> None:
        self._index(i)
        self._kind(self._write)
        self._array[i] = value
        self._values[i] = self._array[i].item()


class AccessLoggingLauncher:
    """Run each kernel spec once per thread, logging its array accesses.

    Same ``launch`` protocol and thread order as
    :class:`~repro.coloring.interp.ThreadLauncher`. Every global array
    parameter is wrapped so each element read/write is recorded. Each
    launch opens a new ``log`` step (launches are sync edges) named
    ``<kernel>#<n>``, and its accesses go into it in bulk once the last
    thread has run. Arrays in the spec's ``atomic_arrays`` are logged
    atomic; wavefront-local arrays are not logged. The logical arrays a
    kernel updates in place (its
    :data:`~repro.check.concurrency.INPLACE_ARRAYS` entry, or
    ``inplace`` for every kernel when given) are one physical buffer, so
    ``colors_in``/``colors_out`` are logged as ``colors`` there and
    under their own names otherwise. Thread ids are ``tid`` for thread
    kernels and ``wid * wavefront_size + lane`` for wavefront kernels.
    """

    def __init__(self, log: AccessLog, *, inplace: frozenset[str] | None = None):
        self.log = log
        self.inplace = inplace

    def launch(self, name: str, count: int, /, **params: Any) -> None:
        kernel = DEVICE_KERNELS[name]
        logged = [p for p in kernel.array_params if p not in kernel.local_arrays]
        indices: list[Any] = []
        kinds: list[int] = []
        values = {id(params[p]): params[p].tolist() for p in logged}  # one per array
        wrapped = {
            p: _LoggedArray(params[p], values[id(params[p])], slot, indices, kinds)
            for slot, p in enumerate(logged)
        }
        ids_given = 2 if kernel.mapping == "wavefront" else 1
        args = [wrapped.get(p, params[p]) for p in kernel.params[ids_given:]]
        order = launch_order(kernel, count, params)
        ends: list[int] = []
        fn, mark = kernel.fn, ends.append
        for ids in order:
            fn(*ids, *args)
            mark(len(indices))

        self.log.next_step(f"{name}#{self.log.step}")
        if not indices:
            return
        inplace = inplace_arrays(name) if self.inplace is None else self.inplace
        calls = np.fromiter(chain.from_iterable(order), np.int64).reshape(len(order), ids_given)
        if ids_given == 2:  # (wid, lane)
            calls[:, 0] = calls[:, 0] * int(params["wavefront_size"]) + calls[:, 1]
        threads = np.repeat(calls[:, 0], np.diff(ends, prepend=0))
        where = np.fromiter(indices, np.int64, len(indices))
        kind = np.fromiter(kinds, np.int16, len(kinds))
        by_kind = np.argsort(kind, kind="stable")  # keeps logged order per kind
        where, threads = where[by_kind], threads[by_kind]
        ends_by_code = np.cumsum(np.bincount(kind, minlength=2 * len(logged)))
        start = 0
        for code, end in enumerate(ends_by_code.tolist()):
            if end > start:
                param = logged[code // 2]
                buffer = logical_array(param)
                if buffer not in inplace:
                    buffer = param
                record = self.log.write if code % 2 else self.log.read
                atomic = param in kernel.atomic_arrays
                record(buffer, where[start:end], threads[start:end], atomic=atomic)
            start = end


def scan_algorithm_races(
    graph: CSRGraph,
    algorithm: str = "speculative",
    *,
    seed: int = 0,
    wavefront_size: int = DEFAULT_WAVEFRONT_SIZE,
    max_findings_per_array: int = 50,
) -> RaceScan:
    """Run ``algorithm``'s kernel specs under the access log and classify.

    The host loop is :func:`repro.coloring.interp.run_coloring`, so
    every GPU algorithm it drives can be scanned. Returns a
    :class:`RaceScan` whose ``ok`` property is the proof obligation:
    every detected race must be on one of the algorithm's declared
    expected-racy arrays (none at all for the independent-set
    algorithms; only ``colors`` for the speculative family).
    """
    if algorithm not in INTERP_ALGORITHMS:
        raise KeyError(
            f"no race scan for {algorithm!r}; known: {sorted(INTERP_ALGORITHMS)}"
        )
    benign = expected_racy(algorithm)  # exactly its kernels' in-place arrays
    log = AccessLog(wavefront_size=wavefront_size)
    colors = run_coloring(graph, algorithm, AccessLoggingLauncher(log), seed=seed)
    per_array: dict[str, int] = {}
    findings = detect_races(
        log,
        expected_racy=benign,
        max_findings_per_array=max_findings_per_array,
        counts_out=per_array,
    )
    truncated = {
        a: c - max_findings_per_array
        for a, c in per_array.items()
        if c > max_findings_per_array
    }
    return RaceScan(
        algorithm=algorithm,
        findings=findings,
        expected_racy=benign,
        total_accesses=log.total_accesses,
        steps=log.step,
        arrays=log.arrays,
        colors=colors,
        truncated=truncated,
    )
