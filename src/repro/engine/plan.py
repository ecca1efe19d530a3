"""Execution plans — the work distribution of each timed kernel.

Timing a kernel means deriving, from its active-degree array, the
per-lane costs, degree partitions (hybrid mapping), wavefront lockstep
costs or chunk costs (persistent schedules) that dispatch consumes. An
:class:`ExecutionPlan` packages them. :func:`build_plans` derives the
plans of a whole timing window in one segmented pass over the
concatenated degrees; re-deriving a plan costs less than keying a memo
of it, so nothing is cached.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..gpusim.wavefront import segmented_wavefront_costs, simd_efficiency

if TYPE_CHECKING:
    from ..coloring.kernels import CostModel, ExecutionConfig
    from ..gpusim.device import DeviceConfig

__all__ = [
    "ExecutionPlan",
    "as_degrees",
    "build_plan",
    "build_plans",
    "coop_efficiency",
]


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
    """Derive the work distributions of several degree arrays in one pass.

    ``degree_arrays`` hold validated degrees (see :func:`as_degrees`),
    typically every vertex kernel of one timing window. The float
    degrees, the cost laws and the per-wavefront maxima run once over
    the concatenation, with groups that never straddle two arrays. Only
    the float sums whose order matters run per array, on its own slice:
    the pairwise ``sum`` of a traffic figure or a SIMD efficiency (a
    slice sums exactly like a standalone array) and the sequential
    prefix sum of the chunk costs (two arrays to one complex sum, see
    :func:`_chunk_sums`). Each plan is bit-identical to deriving its
    array alone.
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
    flat = np.concatenate(degs, dtype=np.float64)
    derive = _grid_fields if config.schedule == "grid" else _persistent_fields
    return [
        ExecutionPlan(degrees=d, traffic_elements=costs.traffic_elements(f), **fields)
        for d, f, fields in zip(
            degs, _split(flat, sizes), derive(flat, sizes, config, costs, device), strict=True
        )
    ]


def _split(values: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """``values`` cut back into consecutive pieces of ``sizes`` (views)."""
    ends = np.cumsum(sizes).tolist()
    return [values[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends, strict=True)]


def _chunk_sums(segments: Sequence[np.ndarray], per_chunk: int) -> list[np.ndarray]:
    """Costs of consecutive ``per_chunk``-item chunks of every segment.

    Differences of each segment's sequential prefix sum at its chunk
    boundaries: the subtractions of ``chunk_costs(item_costs,
    chunk_ranges(n, per_chunk))``, without building and checking the range
    array. The prefix sums run two segments to one complex128
    ``np.add.accumulate``, the largest with the next largest: a complex
    addition is two independent IEEE float64 additions, one per lane, so
    each lane is bit-identical to that segment's own ``np.cumsum``. The
    shorter segment of a pair is zero-padded after its own end.
    """
    out: list[np.ndarray] = [np.empty(0)] * len(segments)
    by_size = sorted(range(len(segments)), key=lambda s: -segments[s].size)
    for pair in (by_size[i : i + 2] for i in range(0, len(by_size), 2)):
        n = segments[pair[0]].size
        z = np.zeros(n + 1, dtype=np.complex128)
        lanes = z.view(np.float64).reshape(n + 1, 2)
        for lane, s in enumerate(pair):
            lanes[1 : segments[s].size + 1, lane] = segments[s]
        np.add.accumulate(z[1:], out=z[1:])  # from the first item, as np.cumsum
        for lane, s in enumerate(pair):
            size = segments[s].size
            prefix = lanes[: size + 1, lane]
            if per_chunk == 1:
                out[s] = prefix[1:] - prefix[:-1]
                continue
            bounds = np.arange(0, size + per_chunk, per_chunk)
            bounds[-1] = size
            out[s] = prefix[bounds[1:]] - prefix[bounds[:-1]]
    return out


def _split_by_threshold(
    flat: np.ndarray, sizes: np.ndarray, threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """The hybrid split of every segment: ``(low mask, low count per segment)``.

    Degrees below ``threshold`` run thread-per-vertex, the rest
    cooperatively; each side keeps its segment order.
    """
    low = flat < threshold
    return low, np.array([np.count_nonzero(m) for m in _split(low, sizes)], dtype=np.int64)


def _strides(flat: np.ndarray, lanes: int) -> np.ndarray:
    """``ceil(d / lanes)``, the strides of ``lanes`` lanes through each neighbor list."""
    strides = flat / lanes
    return np.ceil(strides, out=strides)


def _coop_efficiencies(
    flat: np.ndarray, sizes: np.ndarray, lanes: int, strides: np.ndarray | None = None
) -> list[float]:
    """:func:`coop_efficiency` of every segment.

    Takes the :func:`_strides` over ``lanes`` when the caller has them,
    and overwrites them.
    """
    steps = _strides(flat, lanes) if strides is None else strides
    np.maximum(steps, 1.0, out=steps)
    return [
        float(d.sum() / (st.sum() * lanes)) if d.size else 1.0
        for d, st in zip(_split(flat, sizes), _split(steps, sizes), strict=True)
    ]


def _lane_efficiencies(
    flat: np.ndarray,
    sizes: np.ndarray,
    lane: np.ndarray,
    n_lane: np.ndarray,
    peaks: tuple[np.ndarray, np.ndarray],
    width: int,
    coop_lanes: int,
) -> list[float]:
    """The SIMD efficiency of every segment's thread lanes.

    ``peaks`` is the lanes' :func:`segmented_wavefront_costs` over
    ``width``. A segment without lanes (all its vertices cooperative)
    takes its :func:`coop_efficiency` over ``coop_lanes``.
    """
    coop = _coop_efficiencies(flat, sizes, coop_lanes) if not n_lane.all() else []
    return [
        simd_efficiency(ln, width, pk) if ln.size else coop[i]
        for i, (ln, pk) in enumerate(
            zip(_split(lane, n_lane), _split(*peaks), strict=True)
        )
    ]


def _grid_fields(
    flat: np.ndarray,
    sizes: np.ndarray,
    config: "ExecutionConfig",
    costs: "CostModel",
    device: "DeviceConfig",
) -> list[dict]:
    lanes = device.wavefront_size
    if config.mapping == "thread":
        return [{"item_cycles": c} for c in _split(costs.thread_vertex_cycles(flat), sizes)]
    if config.mapping == "wavefront":
        strides = _strides(flat, lanes)
        tasks = _split(costs.coop_stride_cycles(strides, lanes), sizes)
        effs = _coop_efficiencies(flat, sizes, lanes, strides)
        return [
            {"tasks": t, "simd_efficiency": e} for t, e in zip(tasks, effs, strict=True)
        ]
    # hybrid: one fused launch — low-degree lanes packed into wavefront
    # tasks, high-degree vertices as cooperative tasks.
    low, n_low = _split_by_threshold(flat, sizes, config.degree_threshold)
    lane = costs.thread_vertex_cycles(flat[low])
    peaks = segmented_wavefront_costs(lane, n_low, lanes)
    coop = costs.coop_vertex_cycles(flat[~low])
    effs = _lane_efficiencies(flat, sizes, lane, n_low, peaks, lanes, lanes)
    out = []
    for pk, hi, eff in zip(
        _split(*peaks), _split(coop, sizes - n_low), effs, strict=True
    ):
        parts = [p for p in (pk, hi) if p.size]
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
        strides = _strides(flat, wg)
        tasks = _split(costs.coop_stride_cycles(strides, wg), sizes)
        effs = _coop_efficiencies(flat, sizes, wg, strides)
        return [
            {"chunk_cycles": c, "simd_efficiency": e}
            for c, e in zip(_chunk_sums(tasks, per_chunk), effs, strict=True)
        ]
    if config.mapping == "thread":
        lane, n_low, coop = costs.thread_vertex_cycles(flat), sizes, flat[:0]
    else:  # hybrid
        low, n_low = _split_by_threshold(flat, sizes, config.degree_threshold)
        lane = costs.thread_vertex_cycles(flat[low])
        coop = costs.coop_vertex_cycles(flat[~low], lanes=wg)
    width = device.wavefront_size
    rounds = segmented_wavefront_costs(lane, n_low, wg)
    peaks = rounds if wg == width else segmented_wavefront_costs(lane, n_low, width)
    effs = _lane_efficiencies(flat, sizes, lane, n_low, peaks, width, wg)
    sums = _chunk_sums(_split(*rounds), config.chunk_size // wg)
    out = []
    for rd, hi, eff in zip(sums, _split(coop, sizes - n_low), effs, strict=True):
        parts = [rd] if rd.size else []
        if hi.size:
            parts.append(hi)
        out.append(
            {
                "chunk_cycles": np.concatenate(parts) if parts else np.empty(0),
                "simd_efficiency": eff,
            }
        )
    return out
