"""SIMT lockstep cost law — per-wavefront timing from per-lane costs.

A wavefront executes all lanes in lockstep: its run time is the maximum
of its lanes' costs, and every cycle a lane sits below that maximum is a
*divergence* cycle in which SIMD hardware does nothing useful. These
functions turn a flat per-work-item cycle array into per-wavefront
costs and the divergence metrics the paper's imbalance figures report.

All functions are vectorized (``reduceat`` over wavefront boundaries)
and pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "wavefront_costs",
    "segmented_wavefront_costs",
    "wavefront_sums",
    "num_wavefronts",
    "simd_efficiency",
    "DivergenceStats",
    "divergence_stats",
]


def num_wavefronts(num_items: int, wavefront_size: int) -> int:
    """Wavefronts needed for ``num_items`` work-items (ceil division)."""
    if wavefront_size <= 0:
        raise ValueError("wavefront_size must be positive")
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    return -(-num_items // wavefront_size)


def _boundaries(num_items: int, wavefront_size: int) -> np.ndarray:
    return np.arange(0, num_items, wavefront_size, dtype=np.int64)


def wavefront_costs(item_cycles: np.ndarray, wavefront_size: int) -> np.ndarray:
    """Lockstep cost per wavefront: ``max`` over each group of lanes.

    Items are assigned to wavefronts positionally (item ``i`` → wavefront
    ``i // wavefront_size``); a trailing partial wavefront still costs
    its slowest lane.
    """
    cycles = np.asarray(item_cycles, dtype=np.float64).ravel()
    if cycles.size == 0:
        return np.empty(0, dtype=np.float64)
    if np.any(cycles < 0):
        raise ValueError("item costs must be non-negative")
    return np.maximum.reduceat(cycles, _boundaries(cycles.size, wavefront_size))


def segmented_wavefront_costs(
    item_cycles: np.ndarray, sizes: np.ndarray, wavefront_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`wavefront_costs` of every segment of a concatenation at once.

    ``item_cycles`` is several per-item cost arrays laid end to end,
    ``sizes`` their lengths. Wavefronts never straddle two segments, so
    the result is the concatenation of each segment's own
    :func:`wavefront_costs` (a ``max`` is exact in any grouping).
    Returns ``(costs, wavefronts per segment)``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    groups = -(-sizes // wavefront_size)
    cycles = np.asarray(item_cycles, dtype=np.float64).ravel()
    if cycles.size == 0:
        return np.empty(0, dtype=np.float64), groups
    if cycles.min() < 0:
        raise ValueError("item costs must be non-negative")
    first = np.cumsum(groups) - groups
    rank = np.arange(int(groups.sum()), dtype=np.int64) - np.repeat(first, groups)
    starts = np.repeat(np.cumsum(sizes) - sizes, groups) + rank * wavefront_size
    return np.maximum.reduceat(cycles, starts), groups


def wavefront_sums(item_cycles: np.ndarray, wavefront_size: int) -> np.ndarray:
    """Sum of lane costs per wavefront (the useful-work numerator)."""
    cycles = np.asarray(item_cycles, dtype=np.float64).ravel()
    if cycles.size == 0:
        return np.empty(0, dtype=np.float64)
    return np.add.reduceat(cycles, _boundaries(cycles.size, wavefront_size))


def simd_efficiency(
    item_cycles: np.ndarray, wavefront_size: int, peaks: np.ndarray | None = None
) -> float:
    """Fraction of lane-cycles doing useful work under lockstep.

    ``sum(lane costs) / (wavefront_size * sum(max per wavefront))`` —
    1.0 for perfectly uniform lanes, → 0 for a lone heavy lane. Partial
    trailing wavefronts are charged for their idle lanes too, exactly as
    hardware would. ``peaks`` are the items' :func:`wavefront_costs`
    when the caller has them already (its slice of a
    :func:`segmented_wavefront_costs`).
    """
    cycles = np.asarray(item_cycles, dtype=np.float64).ravel()
    if cycles.size == 0:
        return 1.0
    if peaks is None:
        peaks = wavefront_costs(cycles, wavefront_size)
    denom = wavefront_size * peaks.sum()
    if denom == 0:
        return 1.0
    return float(cycles.sum() / denom)


@dataclass(frozen=True)
class DivergenceStats:
    """Divergence summary for one kernel's work distribution."""

    num_wavefronts: int
    total_lockstep_cycles: float  # sum of per-wavefront maxima
    total_useful_cycles: float  # sum of per-lane costs
    simd_efficiency: float
    max_wavefront_cycles: float
    mean_wavefront_cycles: float
    wavefront_cv: float  # inter-wavefront imbalance

    def as_row(self) -> dict[str, object]:
        return {
            "wavefronts": self.num_wavefronts,
            "lockstep_cycles": round(self.total_lockstep_cycles, 1),
            "useful_cycles": round(self.total_useful_cycles, 1),
            "simd_eff": round(self.simd_efficiency, 4),
            "wf_max": round(self.max_wavefront_cycles, 1),
            "wf_mean": round(self.mean_wavefront_cycles, 1),
            "wf_cv": round(self.wavefront_cv, 4),
        }


def divergence_stats(item_cycles: np.ndarray, wavefront_size: int) -> DivergenceStats:
    """Full divergence/imbalance summary for a per-item cost array."""
    cycles = np.asarray(item_cycles, dtype=np.float64).ravel()
    peaks = wavefront_costs(cycles, wavefront_size)
    if peaks.size == 0:
        return DivergenceStats(0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    mean = float(peaks.mean())
    cv = float(peaks.std() / mean) if mean > 0 else 0.0
    return DivergenceStats(
        num_wavefronts=int(peaks.size),
        total_lockstep_cycles=float(peaks.sum()),
        total_useful_cycles=float(cycles.sum()),
        simd_efficiency=simd_efficiency(cycles, wavefront_size),
        max_wavefront_cycles=float(peaks.max()),
        mean_wavefront_cycles=mean,
        wavefront_cv=cv,
    )
