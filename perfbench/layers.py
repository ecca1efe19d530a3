"""Per-layer timing from outside the program.

:class:`Probe` wraps the public entry points of each layer while it is
installed, and accounts every call as a span on its thread's stack: a
span's *self* time is its duration minus that of the spans it encloses,
so self times of all layers add up to the wall they cover. Counting work
the wrappers do (degrees of active rows, chunk counts) is timed apart and
charged to a ``probe`` bucket, so it inflates no layer.

Nothing in the package changes: wrappers are installed by replacing
attributes on classes and modules, and removed again on exit.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import LAYERS


class Probe:
    """Span accounting plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.reset()

    # -- accounting -----------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.self_s: dict[str, float] = dict.fromkeys((*LAYERS, "probe"), 0.0)
            self.incl_s: dict[str, float] = defaultdict(float)
            self.counts: dict[str, int] = defaultdict(int)

    def take(self) -> tuple[dict, dict, dict]:
        """Return and clear (self seconds, inclusive seconds, counts)."""
        with self._lock:
            out = (dict(self.self_s), dict(self.incl_s), dict(self.counts))
        self.reset()
        return out

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, layer: str, key: str, fn, args, kwargs, count=None):
        """Run ``fn`` as a span of ``layer``; ``count(out, *args)`` adds counts."""
        stack = self._stack()
        frame = [0.0]  # time of enclosed spans
        stack.append(frame)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
        extra: dict = {}
        spent = 0.0
        if count is not None:
            t1 = perf_counter()
            extra = count(out, *args, **kwargs)
            spent = perf_counter() - t1
        if stack:
            stack[-1][0] += dt + spent
        with self._lock:
            self.self_s[layer] += dt - frame[0]
            self.self_s["probe"] += spent
            self.incl_s[key] += dt
            self.counts[key + ".calls"] += 1
            for k, v in extra.items():
                self.counts[k] += v
        return out

    def wrap(self, fn, layer: str, key: str, count=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(layer, key, fn, args, kwargs, count)

        return timed

    # -- installation ---------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every layer's entry points for the duration of the block."""
        from repro.coloring.base import ColoringResult
        from repro.coloring.kernels import GPUExecutor
        from repro.engine import context as context_mod
        from repro.harness import batch, runner
        from repro.serve import executor as serve_executor
        from repro.store.db import RunStore
        from repro.store.recorder import Recorder

        run = self.wrap(runner.run_gpu_coloring, "host", "host", _count_sweeps)
        make_backend = context_mod.make_backend
        patches = [
            (runner, "run_gpu_coloring", run),
            (batch, "run_gpu_coloring", run),
            (
                context_mod,
                "make_backend",
                lambda spec, **kw: TimedBackend(make_backend(spec, **kw), self),
            ),
            (
                GPUExecutor,
                "time_iteration",
                self.wrap(GPUExecutor.time_iteration, "timing", "timing", _count_steals),
            ),
            (
                GPUExecutor,
                "time_uniform",
                self.wrap(GPUExecutor.time_uniform, "timing", "timing"),
            ),
            (
                GPUExecutor,
                "plan_for",
                _plan_wrapper(self, GPUExecutor.plan_for),
            ),
            (
                ColoringResult,
                "validate",
                self.wrap(ColoringResult.validate, "validate", "validate"),
            ),
            (
                Recorder,
                "record_run",
                self.wrap(Recorder.record_run, "store", "store.write", _count_row),
            ),
            (
                RunStore,
                "update_job",
                self.wrap(RunStore.update_job, "store", "store.ledger"),
            ),
            (
                serve_executor,
                "run_batch_cell",
                self.wrap(serve_executor.run_batch_cell, "serve", "serve.cell"),
            ),
            (serve_executor, "build", self.wrap(serve_executor.build, "graph", "graph")),
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, value in patches:
                setattr(owner, name, value)
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)


class TimedBackend:
    """An array backend that times and counts calls into another one."""

    name = "timed"

    def __init__(self, inner, probe: Probe) -> None:
        self.inner = inner
        self.probe = probe

    def _reduce(self, fn, graph, values, fill, *rest):
        def count(out, graph, values, *_):
            return _reduce_counts(graph, values, fill)

        return self.probe.call("nbr", "nbr.reduce", fn, (graph, values, *rest), {}, count)

    def neighbor_reduce(self, graph, values, op, fill):
        return self._reduce(self.inner.neighbor_reduce, graph, values, fill, op, fill)

    def neighbor_max(self, graph, values):
        return self._reduce(self.inner.neighbor_max, graph, values, -np.inf)

    def neighbor_min(self, graph, values):
        return self._reduce(self.inner.neighbor_min, graph, values, np.inf)

    def first_fit_colors(self, graph, colors, vertices):
        return self.probe.call(
            "nbr", "nbr.first_fit", self.inner.first_fit_colors,
            (graph, colors, vertices), {},
        )


def _reduce_counts(graph, values, fill) -> dict:
    """Edges one reduction touches, and those of rows whose answer is used.

    A row is active when its own value is not the reduction's identity:
    the algorithms blank colored vertices with it. ``nbr.bytes`` is
    computed, not measured: one index and one value read per edge, one
    offset read and one value write per row.
    """
    m = int(graph.indices.size)
    n = graph.num_vertices
    active = np.asarray(values) != fill
    return {
        "nbr.edges_reduced": m,
        "nbr.edges_useful": int(graph.degrees[active].sum()),
        "nbr.bytes": m * (graph.indices.itemsize + 8) + n * (graph.indptr.itemsize + 8),
    }


def _count_sweeps(result, *args, **kwargs) -> dict:
    return {"host.sweeps": result.num_iterations}


def _count_steals(timing, *args, **kwargs) -> dict:
    st = timing.stealing
    return {"timing.steal_attempts": int(st.steal_attempts) if st is not None else 0}


def _count_row(out, *args, **kwargs) -> dict:
    return {"store.rows": 1}


def _plan_wrapper(probe: Probe, plan_for):
    """``plan_for`` timed, counting chunks and plan-cache hits."""

    @functools.wraps(plan_for)
    def timed(executor, degrees):
        hits = executor.plans.hits

        def count(plan, *_):
            chunks = plan.chunk_cycles
            return {
                "timing.plan_hits": executor.plans.hits - hits,
                "timing.chunks": int(chunks.size) if chunks is not None else 0,
            }

        return probe.call("timing", "timing.plan", plan_for, (executor, degrees), {}, count)

    return timed
