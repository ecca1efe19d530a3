"""Cached execution plans — per-iteration work distributions, memoized.

Timing one coloring iteration means re-deriving the same per-graph
invariants every sweep: lane cost vectors, degree partitions (hybrid
mapping), wavefront lockstep costs, and chunk cost vectors (persistent
schedules). Those depend only on *(active-degree array, execution
configuration, cost model)* — and iterative algorithms, batch sweeps,
and repeated benchmark cells keep presenting the same triples. An
:class:`ExecutionPlan` packages the derived arrays; a :class:`PlanCache`
memoizes them under a content fingerprint so warm iterations skip
straight to dispatch.

The cache is exact, not approximate: the key fingerprints the degree
bytes plus the full (hashable, frozen) ``ExecutionConfig`` and
``CostModel``, so any change to the graph, the chunk size, the mapping,
or the device invalidates by construction.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..gpusim.wavefront import segmented_wavefront_costs, simd_efficiency
from ..loadbalance.partition import chunk_costs, chunk_ranges

if TYPE_CHECKING:
    from ..coloring.kernels import CostModel, ExecutionConfig
    from ..gpusim.device import DeviceConfig

__all__ = [
    "ExecutionPlan",
    "PlanCache",
    "as_degrees",
    "build_plan",
    "build_plans",
    "coop_efficiency",
    "degrees_fingerprint",
]


_INT32_MIN = int(np.iinfo(np.int32).min)
_INT32_MAX = int(np.iinfo(np.int32).max)


def as_degrees(values: np.ndarray) -> np.ndarray:
    """``values`` as a flat array of validated vertex degrees.

    Degrees must be finite, integer-valued and non-negative; anything
    else raises :class:`ValueError` (a float such as ``1.5`` used to be
    truncated silently). The result is a fresh int32 array, or int64
    when a degree does not fit int32.
    """
    arr = np.asarray(values).ravel()
    kind = arr.dtype.kind
    if kind == "f":
        if not np.all(arr % 1 == 0):
            raise ValueError("degrees must be finite integers")
    elif kind not in "biu":
        raise ValueError(f"degrees must be integers, not {arr.dtype}")
    if arr.size == 0:
        return np.empty(0, dtype=np.int32)
    if arr.min() < 0:
        raise ValueError("degrees must be non-negative")
    top = arr.max()
    if top > _INT32_MAX:
        if top > np.iinfo(np.int64).max:
            raise ValueError("degrees must fit int64")
        return arr.astype(np.int64)
    return arr.astype(np.int32)


def degrees_fingerprint(degrees: np.ndarray) -> tuple[int, bytes]:
    """Content fingerprint of a degree array (size + blake2b digest).

    Value-based: equal values fingerprint equal whatever the integer
    dtype. Values that fit int32 are hashed as int32 bytes (an int32
    array in place, with no copy); wider values as int64 bytes.
    """
    deg = np.ascontiguousarray(degrees)
    if deg.dtype != np.int32:
        deg = deg.astype(np.int64, copy=False)
        if deg.size == 0 or (deg.min() >= _INT32_MIN and deg.max() <= _INT32_MAX):
            deg = deg.astype(np.int32)
    return deg.size, hashlib.blake2b(deg, digest_size=16).digest()


def coop_efficiency(degrees: np.ndarray, lanes: int) -> float:
    """Lane utilization of cooperative strides (partial last stride)."""
    d = np.asarray(degrees, dtype=np.float64)
    steps = np.maximum(np.ceil(d / lanes), 1.0)
    return float(d.sum() / (steps.sum() * lanes)) if d.size else 1.0


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything derivable before dispatch for one iteration's kernel.

    Exactly one artifact family is populated, per the configuration the
    plan was built for:

    * grid + thread mapping → ``item_cycles`` (per-lane costs);
    * grid + wavefront/hybrid mapping → ``tasks`` (per-wavefront costs);
    * persistent schedules → ``chunk_cycles``.

    ``degrees`` is the thread-id-order degree array actually timed
    (descending-sorted when the configuration says so), ``traffic_elements``
    the kernel's DRAM roofline input, and ``simd_efficiency`` the lane
    utilization for paths where dispatch does not compute it itself.
    """

    degrees: np.ndarray
    traffic_elements: float
    simd_efficiency: float = 1.0
    item_cycles: np.ndarray | None = None
    tasks: np.ndarray | None = None
    chunk_cycles: np.ndarray | None = None
    kernel_suffix: str = ""


def build_plan(
    degrees: np.ndarray,
    config: "ExecutionConfig",
    costs: "CostModel",
    device: "DeviceConfig",
) -> ExecutionPlan:
    """Derive the work distribution for ``degrees`` under ``config``.

    ``config`` is an :class:`~repro.coloring.kernels.ExecutionConfig`,
    ``costs`` a :class:`~repro.coloring.kernels.CostModel`, ``device``
    a :class:`~repro.gpusim.device.DeviceConfig`. The one-array case of
    :func:`build_plans`.
    """
    return build_plans([as_degrees(degrees)], config, costs, device)[0]


def build_plans(
    degree_arrays: Sequence[np.ndarray],
    config: "ExecutionConfig",
    costs: "CostModel",
    device: "DeviceConfig",
) -> list[ExecutionPlan]:
    """Derive the work distributions of several degree arrays at once.

    ``degree_arrays`` hold validated degrees (see :func:`as_degrees`).
    The element-wise cost laws and the per-wavefront maxima run once
    over the concatenation, with groups that never straddle two arrays.
    Every float sum whose order matters (the pairwise ``sum`` of a SIMD
    efficiency, the sequential prefix sum of the chunk costs) runs on
    each array's own slice, so each plan is bit-identical to deriving
    its array alone.
    """
    degs = list(degree_arrays)
    if config.sort_by_degree:
        # Descending: packs similar degrees into the same wavefront
        # (less divergence) *and* dispatches the heavy work first
        # (LPT-style, shrinking the idle tail).
        degs = [np.sort(d)[::-1] for d in degs]
    if not degs:
        return []
    sizes = np.array([d.size for d in degs], dtype=np.int64)
    flat = np.concatenate(degs)
    derive = _grid_fields if config.schedule == "grid" else _persistent_fields
    return [
        ExecutionPlan(degrees=d, traffic_elements=costs.traffic_elements(d), **f)
        for d, f in zip(degs, derive(flat, sizes, config, costs, device), strict=True)
    ]


def _split(values: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """``values`` cut back into consecutive pieces of ``sizes``."""
    return np.split(values, np.cumsum(sizes)[:-1])


def _chunk_sums(item_costs: np.ndarray, per_chunk: int) -> np.ndarray:
    """Costs of consecutive ``per_chunk``-item chunks (a sequential prefix sum)."""
    return chunk_costs(item_costs, chunk_ranges(item_costs.size, per_chunk))


def _split_by_threshold(
    flat: np.ndarray, sizes: np.ndarray, threshold: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The hybrid split of every segment: ``(low, low sizes, high, high sizes)``.

    Degrees below ``threshold`` run thread-per-vertex, the rest
    cooperatively; each side keeps its segment order.
    """
    low = flat < threshold
    seg = np.repeat(np.arange(sizes.size), sizes)
    n_low = np.bincount(seg[low], minlength=sizes.size)
    return flat[low], n_low, flat[~low], sizes - n_low


def _grid_fields(
    flat: np.ndarray,
    sizes: np.ndarray,
    config: "ExecutionConfig",
    costs: "CostModel",
    device: "DeviceConfig",
) -> list[dict]:
    lanes = device.wavefront_size
    if config.mapping == "thread":
        return [
            {"item_cycles": c}
            for c in _split(costs.thread_vertex_cycles(flat), sizes)
        ]
    if config.mapping == "wavefront":
        tasks = _split(costs.coop_vertex_cycles(flat), sizes)
        return [
            {"tasks": t, "simd_efficiency": coop_efficiency(d, lanes)}
            for t, d in zip(tasks, _split(flat, sizes), strict=True)
        ]
    # hybrid: one fused launch — low-degree lanes packed into wavefront
    # tasks, high-degree vertices as cooperative tasks.
    low, n_low, high, n_high = _split_by_threshold(
        flat, sizes, config.degree_threshold
    )
    lane = costs.thread_vertex_cycles(low)
    peaks, n_wf = segmented_wavefront_costs(lane, n_low, lanes)
    coop = costs.coop_vertex_cycles(high)
    out = []
    for d, ln, pk, hi in zip(
        _split(flat, sizes),
        _split(lane, n_low),
        _split(peaks, n_wf),
        _split(coop, n_high),
        strict=True,
    ):
        parts = [p for p in (pk, hi) if p.size]
        eff = simd_efficiency(ln, lanes) if ln.size else coop_efficiency(d, lanes)
        out.append(
            {
                "tasks": np.concatenate(parts) if parts else np.empty(0),
                "simd_efficiency": eff,
                "kernel_suffix": "+coop",
            }
        )
    return out


def _persistent_fields(
    flat: np.ndarray,
    sizes: np.ndarray,
    config: "ExecutionConfig",
    costs: "CostModel",
    device: "DeviceConfig",
) -> list[dict]:
    """Per-chunk execution cycles under the configured mapping.

    A persistent workgroup executes a chunk in lockstep *rounds* of
    ``workgroup_size`` lanes (its wavefronts run concurrently on the
    CU's SIMDs, so a round costs its slowest lane). Under the hybrid
    mapping, high-degree vertices are pulled out of the chunks and
    appended as single-vertex cooperative chunks (processed by a whole
    workgroup striding the neighbor list).
    """
    wg = config.workgroup_size
    if config.mapping == "wavefront":
        # one vertex per chunk round, whole workgroup cooperates
        per_chunk = max(1, config.chunk_size // wg)
        tasks = _split(costs.coop_vertex_cycles(flat, lanes=wg), sizes)
        return [
            {
                "chunk_cycles": _chunk_sums(t, per_chunk),
                "simd_efficiency": coop_efficiency(d, wg),
            }
            for t, d in zip(tasks, _split(flat, sizes), strict=True)
        ]
    if config.mapping == "thread":
        low, n_low = flat, sizes
        high, n_high = flat[:0], np.zeros_like(sizes)
    else:  # hybrid
        low, n_low, high, n_high = _split_by_threshold(
            flat, sizes, config.degree_threshold
        )
    lane = costs.thread_vertex_cycles(low)
    rounds, n_rounds = segmented_wavefront_costs(lane, n_low, wg)
    coop = costs.coop_vertex_cycles(high, lanes=wg)
    per_chunk = config.chunk_size // wg
    out = []
    for d, ln, rd, hi in zip(
        _split(flat, sizes),
        _split(lane, n_low),
        _split(rounds, n_rounds),
        _split(coop, n_high),
        strict=True,
    ):
        parts = [_chunk_sums(rd, per_chunk)] if ln.size else []
        if hi.size:
            parts.append(hi)
        eff = (
            simd_efficiency(ln, device.wavefront_size)
            if ln.size
            else coop_efficiency(d, wg)
        )
        out.append(
            {
                "chunk_cycles": np.concatenate(parts) if parts else np.empty(0),
                "simd_efficiency": eff,
            }
        )
    return out


class PlanCache:
    """Bounded LRU cache of :class:`ExecutionPlan` values.

    Keys are arbitrary hashables (the executor keys on the degree
    fingerprint + configuration + cost model). ``max_entries`` bounds
    memory: iterative algorithms present one distinct active set per
    round, so an unbounded cache would grow with iteration count.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Hashable, ExecutionPlan] = OrderedDict()

    def get_or_build(
        self, key: Hashable, builder: Callable[[], ExecutionPlan]
    ) -> ExecutionPlan:
        """Return the cached plan for ``key``, building it on a miss."""
        plan = self._entries.get(key)
        if plan is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return plan
        self.misses += 1
        plan = builder()
        self._entries[key] = plan
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return plan

    def clear(self) -> None:
        """Drop every entry and zero the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def items(self) -> list[tuple[Hashable, ExecutionPlan]]:
        """Snapshot of the cached ``(key, plan)`` pairs, LRU order.

        Used by :mod:`repro.harness.artifacts` to persist warm plans
        across benchmark invocations.
        """
        return list(self._entries.items())

    def seed(self, entries: Iterable[tuple[Hashable, ExecutionPlan]]) -> int:
        """Pre-populate from ``(key, plan)`` pairs; returns count added.

        Existing keys are left untouched (a live entry is at least as
        fresh as a persisted one); the LRU bound still applies.
        """
        added = 0
        for key, plan in entries:
            if key in self._entries:
                continue
            self._entries[key] = plan
            added += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return added

    def stats(self) -> dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self._entries)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
