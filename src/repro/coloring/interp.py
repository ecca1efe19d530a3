"""Per-thread interpreter driver: color graphs via kernel launches only.

The vectorized algorithm modules are the simulator's hosts; the
per-thread specs in :mod:`~repro.coloring.device_kernels` are what the
static analyses certify. This module is the bridge that makes the
certified artifact *runnable end to end*: it drives a full coloring
using nothing but kernel launches — exactly the host loop a GPU runtime
would execute — against a pluggable launcher:

* :class:`ThreadLauncher` — the reference interpreter: runs the
  Python spec once per thread, ascending ids; wavefront kernels run
  their lanes in *descending* order, the serialization that is
  equivalent to lockstep for the reduction pattern the specs use
  (each step reads ``scratch[lane + step]``, written by a higher
  lane), the same order the spec-equivalence tests execute
  (:func:`launch_order`).
* the access-logging launcher from :mod:`repro.check.races` — the
  interpreter's thread order, with every global-array access logged
  for the dynamic race check.

The host loops here mirror the vectorized modules' round structure
(snapshot in/out buffers, sweep until no vertex is uncolored); colors
are returned raw (not compacted), as each sweep assigned them.
"""

from __future__ import annotations

from typing import Any, Protocol

import numpy as np

from ..graphs.csr import CSRGraph
from .base import UNCOLORED
from .device_kernels import DEVICE_KERNELS, KERNEL_ALGORITHMS, DeviceKernel
from .priorities import make_priorities

__all__ = [
    "INTERP_ALGORITHMS",
    "KernelLauncher",
    "ThreadLauncher",
    "directed_edges",
    "launch_order",
    "run_coloring",
]

#: algorithms the kernel-launch driver can run to completion: all of them.
INTERP_ALGORITHMS = KERNEL_ALGORITHMS

DEFAULT_WAVEFRONT_SIZE = 64


class KernelLauncher(Protocol):
    """Anything that can execute one named kernel launch."""

    def launch(self, name: str, count: int, /, **params: Any) -> None:
        """Run kernel ``name`` for ids ``0..count-1`` over ``params``."""


def launch_order(
    kernel: DeviceKernel, count: int, params: dict[str, Any]
) -> list[tuple[int, ...]]:
    """The id arguments of every thread of one launch, in execution order.

    Thread kernels run ids ascending. Wavefront kernels run wavefronts
    ascending and each wavefront's lanes *descending* — lockstep-
    equivalent for the spec's reduction.
    """
    if kernel.mapping == "wavefront":
        lanes = range(int(params["wavefront_size"]) - 1, -1, -1)
        return [(wid, lane) for wid in range(count) for lane in lanes]
    return [(tid,) for tid in range(count)]


class ThreadLauncher:
    """Reference launcher: the Python spec, one thread at a time."""

    def launch(self, name: str, count: int, /, **params: Any) -> None:
        kernel = DEVICE_KERNELS[name]
        for ids in launch_order(kernel, count, params):
            kernel.fn(*ids, **params)


def directed_edges(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """The edge-centric grid: one item per directed CSR entry."""
    owners = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    return owners, graph.indices


def _require_progress(colors: np.ndarray, before: int, what: str) -> int:
    remaining = int(np.count_nonzero(colors == UNCOLORED))
    if remaining >= before:
        raise RuntimeError(f"{what}: no progress ({remaining} uncolored)")
    return remaining


def run_coloring(
    graph: CSRGraph,
    algorithm: str,
    launcher: KernelLauncher | None = None,
    *,
    seed: int = 0,
    priority: str = "random",
    mapping: str = "thread",
    wavefront_size: int = DEFAULT_WAVEFRONT_SIZE,
) -> np.ndarray:
    """Color ``graph`` end to end through kernel launches alone.

    Deterministic in (graph, algorithm, seed, priority): every launcher
    that keeps the reference interpreter's semantics returns
    bit-identical colors. ``mapping="wavefront"`` selects the
    cooperative max-min kernel (maxmin only).
    """
    if launcher is None:
        launcher = ThreadLauncher()
    if algorithm not in INTERP_ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {INTERP_ALGORITHMS}"
        )
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    if n == 0:
        return colors
    priorities = make_priorities(graph, priority, seed=seed)

    if algorithm == "maxmin":
        return _run_maxmin(
            graph, launcher, priorities, colors,
            mapping=mapping, wavefront_size=wavefront_size,
        )
    if mapping != "thread":
        raise ValueError(f"{algorithm}: only thread mapping is registered")
    if algorithm == "jp":
        return _run_jp(graph, launcher, priorities, colors)
    if algorithm == "speculative" or algorithm == "partitioned":
        # partitioned coloring's phases launch the speculative pair over
        # interior then boundary vertices; at whole-graph granularity
        # one iteration is exactly the speculative assign/detect pair.
        return _run_speculative(graph, launcher, priorities, colors)
    if algorithm == "hybrid-switch":
        return _run_hybrid(graph, launcher, priorities, colors)
    if algorithm == "edge-centric":
        return _run_edge_centric(graph, launcher, priorities, colors)
    raise AssertionError(algorithm)


def _run_maxmin(
    graph: CSRGraph,
    launcher: KernelLauncher,
    priorities: np.ndarray,
    colors: np.ndarray,
    *,
    mapping: str,
    wavefront_size: int,
) -> np.ndarray:
    n = graph.num_vertices
    remaining = int(np.count_nonzero(colors == UNCOLORED))
    scratch_max = np.zeros(wavefront_size, dtype=np.float64)
    scratch_min = np.zeros(wavefront_size, dtype=np.float64)
    round_k = 0
    while remaining:
        out = colors.copy()
        if mapping == "wavefront":
            launcher.launch(
                "maxmin_wavefront_sweep", n,
                indptr=graph.indptr, indices=graph.indices,
                priorities=priorities, colors_in=colors, colors_out=out,
                scratch_max=scratch_max, scratch_min=scratch_min,
                round_k=round_k, wavefront_size=wavefront_size,
            )
        else:
            launcher.launch(
                "maxmin_sweep", n,
                indptr=graph.indptr, indices=graph.indices,
                priorities=priorities, colors_in=colors, colors_out=out,
                round_k=round_k,
            )
        colors = out
        remaining = _require_progress(colors, remaining, f"maxmin round {round_k}")
        round_k += 1
    return colors


def _run_jp(
    graph: CSRGraph,
    launcher: KernelLauncher,
    priorities: np.ndarray,
    colors: np.ndarray,
) -> np.ndarray:
    n = graph.num_vertices
    remaining = int(np.count_nonzero(colors == UNCOLORED))
    rounds = 0
    while remaining:
        out = colors.copy()
        launcher.launch(
            "jp_sweep", n,
            indptr=graph.indptr, indices=graph.indices,
            priorities=priorities, colors_in=colors, colors_out=out,
        )
        colors = out
        remaining = _require_progress(colors, remaining, f"jp round {rounds}")
        rounds += 1
    return colors


def _speculative_iteration(
    graph: CSRGraph,
    launcher: KernelLauncher,
    priorities: np.ndarray,
    colors: np.ndarray,
) -> np.ndarray:
    n = graph.num_vertices
    assigned = colors.copy()
    launcher.launch(
        "spec_assign", n,
        indptr=graph.indptr, indices=graph.indices,
        colors_in=colors, colors_out=assigned,
    )
    resolved = assigned.copy()
    launcher.launch(
        "spec_detect", n,
        indptr=graph.indptr, indices=graph.indices,
        priorities=priorities, colors_in=assigned, colors_out=resolved,
    )
    return resolved


def _run_speculative(
    graph: CSRGraph,
    launcher: KernelLauncher,
    priorities: np.ndarray,
    colors: np.ndarray,
) -> np.ndarray:
    remaining = int(np.count_nonzero(colors == UNCOLORED))
    rounds = 0
    while remaining:
        colors = _speculative_iteration(graph, launcher, priorities, colors)
        remaining = _require_progress(colors, remaining, f"speculative round {rounds}")
        rounds += 1
    return colors


def _run_hybrid(
    graph: CSRGraph,
    launcher: KernelLauncher,
    priorities: np.ndarray,
    colors: np.ndarray,
) -> np.ndarray:
    """Max-min sweeps while the active set is large, then speculative."""
    n = graph.num_vertices
    switch_below = max(1, n // 8)
    remaining = int(np.count_nonzero(colors == UNCOLORED))
    round_k = 0
    while remaining > switch_below:
        out = colors.copy()
        launcher.launch(
            "maxmin_sweep", n,
            indptr=graph.indptr, indices=graph.indices,
            priorities=priorities, colors_in=colors, colors_out=out,
            round_k=round_k,
        )
        colors = out
        remaining = _require_progress(colors, remaining, f"hybrid round {round_k}")
        round_k += 1
    return _run_speculative(graph, launcher, priorities, colors)


def _run_edge_centric(
    graph: CSRGraph,
    launcher: KernelLauncher,
    priorities: np.ndarray,
    colors: np.ndarray,
) -> np.ndarray:
    n = graph.num_vertices
    edge_u, edge_v = directed_edges(graph)
    m = int(edge_u.shape[0])
    remaining = int(np.count_nonzero(colors == UNCOLORED))
    round_k = 0
    while remaining:
        acc_max = np.full(n, -np.inf, dtype=np.float64)
        acc_min = np.full(n, np.inf, dtype=np.float64)
        launcher.launch(
            "ec_edge_fold", m,
            edge_u=edge_u, edge_v=edge_v, priorities=priorities,
            colors_in=colors, acc_max=acc_max, acc_min=acc_min,
        )
        out = colors.copy()
        launcher.launch(
            "ec_decide", n,
            priorities=priorities, colors_in=colors, colors_out=out,
            acc_max=acc_max, acc_min=acc_min, round_k=round_k,
        )
        colors = out
        remaining = _require_progress(colors, remaining, f"edge-centric round {round_k}")
        round_k += 1
    return colors
