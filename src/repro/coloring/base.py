"""Shared coloring types: results, iteration records, validation.

Every algorithm — CPU reference or simulated GPU kernel — returns a
:class:`ColoringResult`: the colors themselves (always a *real*, checked
coloring; the simulator only adds timing on top of genuinely executed
algorithms), the per-iteration history that the paper's behavioral
figures plot, and the simulated device time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpusim.device import DeviceConfig
from ..graphs.csr import CSRGraph

__all__ = [
    "UNCOLORED",
    "InvalidColoringError",
    "validate_coloring",
    "is_valid_coloring",
    "count_conflicts",
    "conflicting_edges",
    "num_colors_used",
    "IterationRecord",
    "ColoringResult",
]

#: Sentinel color of a not-yet-colored vertex.
UNCOLORED = -1

_INT32_MIN, _INT32_MAX = int(np.iinfo(np.int32).min), int(np.iinfo(np.int32).max)


class InvalidColoringError(ValueError):
    """Raised when a claimed coloring has adjacent same-color vertices."""


def _colors_array(graph: CSRGraph, colors: np.ndarray) -> np.ndarray:
    arr = np.asarray(colors)
    if arr.shape != (graph.num_vertices,):
        raise ValueError(
            f"colors must have shape ({graph.num_vertices},), got {arr.shape}"
        )
    return arr.astype(np.int64, copy=False)


def conflicting_edges(graph: CSRGraph, colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of edges whose two sides share a (non-sentinel) color."""
    arr = _colors_array(graph, colors)
    u, v = graph.edge_array()
    bad = (arr[u] == arr[v]) & (arr[u] != UNCOLORED)
    return u[bad], v[bad]


def _directed_conflicts(graph: CSRGraph, arr: np.ndarray) -> int:
    """CSR entries ``(u, w)`` whose ends share a (non-sentinel) color.

    One pass over the directed adjacency, so every conflicting edge
    counts twice. Colors that all fit int32 are compared as int32, which
    halves the bytes the pass reads and is exact under that guard.
    """
    if arr.size and _INT32_MIN <= arr.min() and arr.max() <= _INT32_MAX:
        arr = arr.astype(np.int32)  # check: allow(RC008) -- range guarded above
    own = np.repeat(arr, graph.degrees)
    same = np.take(arr, graph.indices) == own
    return int(np.count_nonzero(own[same] != UNCOLORED))


def count_conflicts(graph: CSRGraph, colors: np.ndarray) -> int:
    """Number of monochromatic edges (ignoring uncolored endpoints)."""
    return _directed_conflicts(graph, _colors_array(graph, colors)) // 2


def is_valid_coloring(
    graph: CSRGraph, colors: np.ndarray, *, allow_uncolored: bool = False
) -> bool:
    """True iff ``colors`` is a proper (complete, unless allowed) coloring."""
    arr = _colors_array(graph, colors)
    if not allow_uncolored and np.any(arr == UNCOLORED):
        return False
    if np.any(arr < UNCOLORED):
        return False
    return _directed_conflicts(graph, arr) == 0


def validate_coloring(
    graph: CSRGraph, colors: np.ndarray, *, allow_uncolored: bool = False
) -> None:
    """Raise :class:`InvalidColoringError` unless the coloring is proper.

    A proper coloring costs one pass over the directed adjacency; the
    conflicting edges the message names are listed only when it finds one.
    """
    arr = _colors_array(graph, colors)
    if np.any(arr < UNCOLORED):
        raise InvalidColoringError("negative color below the UNCOLORED sentinel")
    if not allow_uncolored and np.any(arr == UNCOLORED):
        missing = int((arr == UNCOLORED).sum())
        raise InvalidColoringError(f"{missing} vertices left uncolored")
    if _directed_conflicts(graph, arr):
        u, v = conflicting_edges(graph, arr)
        raise InvalidColoringError(
            f"{u.size} conflicting edges, e.g. ({int(u[0])}, {int(v[0])}) "
            f"both color {int(arr[u[0]])}"
        )


def num_colors_used(colors: np.ndarray) -> int:
    """Distinct non-sentinel colors in the array."""
    arr = np.asarray(colors)
    used = arr[arr != UNCOLORED]
    return int(np.unique(used).size)


@dataclass(frozen=True)
class IterationRecord:
    """One round of an iterative coloring algorithm.

    ``cycles`` covers everything the round launched (all kernels plus
    their launch overheads); 0.0 for untimed CPU references.
    """

    index: int
    active_vertices: int
    newly_colored: int
    cycles: float = 0.0
    simd_efficiency: float | None = None
    kernels: tuple[str, ...] = ()


@dataclass
class ColoringResult:
    """A finished coloring plus its (simulated) execution profile."""

    algorithm: str
    colors: np.ndarray
    iterations: list[IterationRecord] = field(default_factory=list)
    total_cycles: float = 0.0
    device: DeviceConfig | None = None
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def num_colors(self) -> int:
        return num_colors_used(self.colors)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def time_ms(self) -> float:
        """Simulated device time; 0.0 for CPU references."""
        if self.device is None:
            return 0.0
        return self.device.cycles_to_ms(self.total_cycles)

    def validate(self, graph: CSRGraph) -> "ColoringResult":
        """Check the coloring is proper and complete; returns self."""
        validate_coloring(graph, self.colors)
        return self

    def as_row(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "colors": self.num_colors,
            "iterations": self.num_iterations,
            "cycles": round(self.total_cycles, 1),
            "time_ms": round(self.time_ms, 4),
        }

    def __repr__(self) -> str:
        return (
            f"ColoringResult({self.algorithm!r}, colors={self.num_colors}, "
            f"iters={self.num_iterations}, cycles={self.total_cycles:.0f})"
        )
