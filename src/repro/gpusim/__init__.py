"""SIMT GPU timing simulator — the hardware substitution substrate.

Stands in for the paper's AMD Radeon HD 7950: lockstep wavefronts,
greedy workgroup dispatch, a coalescing/bandwidth memory model, and a
discrete-event engine for persistent-kernel runtimes (see DESIGN.md for
why this substitution preserves the paper's load-imbalance phenomena).
"""

from .counters import ExecutionCounters
from .detailed import (
    DetailedParams,
    DetailedResult,
    detailed_dispatch,
    simulate_cu_detailed,
    thread_kernel_decomposition,
)
from .device import (
    CPU_8CORE,
    RADEON_HD_7950,
    RADEON_R9_290X,
    SMALL_TEST_DEVICE,
    DeviceConfig,
    named_device,
)
from .events import EventSimulator
from .kernel import KernelResult, KernelSpec
from .latency import HidingReport, LatencyModel, latency_hiding
from .memory import ELEMENT_BYTES, MemoryModel
from .occupancy import OccupancyLimits, OccupancyReport, occupancy
from .scheduler import (
    dispatch,
    dispatch_tasks,
    dispatch_workgroups,
    greedy_schedule,
    workgroup_costs,
)
from .wavefront import (
    DivergenceStats,
    divergence_stats,
    num_wavefronts,
    segmented_wavefront_costs,
    simd_efficiency,
    wavefront_costs,
    wavefront_sums,
)

__all__ = [
    "DetailedParams",
    "DetailedResult",
    "detailed_dispatch",
    "simulate_cu_detailed",
    "thread_kernel_decomposition",
    "CPU_8CORE",
    "RADEON_HD_7950",
    "RADEON_R9_290X",
    "SMALL_TEST_DEVICE",
    "DeviceConfig",
    "named_device",
    "EventSimulator",
    "KernelResult",
    "KernelSpec",
    "ExecutionCounters",
    "HidingReport",
    "LatencyModel",
    "latency_hiding",
    "ELEMENT_BYTES",
    "MemoryModel",
    "OccupancyLimits",
    "OccupancyReport",
    "occupancy",
    "dispatch",
    "dispatch_tasks",
    "dispatch_workgroups",
    "greedy_schedule",
    "workgroup_costs",
    "DivergenceStats",
    "divergence_stats",
    "num_wavefronts",
    "simd_efficiency",
    "wavefront_costs",
    "segmented_wavefront_costs",
    "wavefront_sums",
]
