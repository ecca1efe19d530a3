"""Graph coloring algorithms — CPU references and simulated GPU kernels."""

from ._nbr import first_fit_colors, neighbor_max, neighbor_min, neighbor_reduce
from .base import (
    UNCOLORED,
    ColoringResult,
    InvalidColoringError,
    IterationRecord,
    conflicting_edges,
    count_conflicts,
    is_valid_coloring,
    num_colors_used,
    validate_coloring,
)
from .distance2 import (
    greedy_distance2,
    is_valid_distance2,
    speculative_distance2,
    two_hop_work,
    validate_distance2,
)
from .edge_centric import edge_centric_maxmin, edge_kernel_cycles_per_item
from .hybrid import hybrid_switch_coloring
from .incremental import IncrementalColoring
from .jacobian import (
    column_intersection_coloring,
    compression_ratio,
    recover_jacobian,
    seed_matrix,
)
from .jones_plassmann import jones_plassmann_coloring
from .kernels import (
    MAPPINGS,
    SCHEDULES,
    CostModel,
    ExecutionConfig,
    GPUExecutor,
    IterationTiming,
)
from .maxmin import compact_colors, maxmin_coloring
from .partitioned import boundary_mask, partition_blocks, partitioned_coloring
from .priorities import PRIORITY_KINDS, make_priorities
from .recolor import balance_colors, class_sizes, recolor_greedy
from .sequential import (
    dsatur,
    greedy_first_fit,
    smallest_last,
    smallest_last_order,
    vertex_order,
    welsh_powell,
)
from .speculative import speculative_coloring, speculative_rounds
from .windowed import window_first_fit, windowed_speculative_coloring

__all__ = [
    "first_fit_colors",
    "neighbor_max",
    "neighbor_min",
    "neighbor_reduce",
    "UNCOLORED",
    "ColoringResult",
    "InvalidColoringError",
    "IterationRecord",
    "conflicting_edges",
    "count_conflicts",
    "is_valid_coloring",
    "num_colors_used",
    "validate_coloring",
    "edge_centric_maxmin",
    "edge_kernel_cycles_per_item",
    "greedy_distance2",
    "is_valid_distance2",
    "speculative_distance2",
    "two_hop_work",
    "validate_distance2",
    "hybrid_switch_coloring",
    "IncrementalColoring",
    "column_intersection_coloring",
    "compression_ratio",
    "recover_jacobian",
    "seed_matrix",
    "jones_plassmann_coloring",
    "PRIORITY_KINDS",
    "make_priorities",
    "balance_colors",
    "class_sizes",
    "recolor_greedy",
    "MAPPINGS",
    "SCHEDULES",
    "CostModel",
    "ExecutionConfig",
    "GPUExecutor",
    "IterationTiming",
    "compact_colors",
    "maxmin_coloring",
    "boundary_mask",
    "partition_blocks",
    "partitioned_coloring",
    "dsatur",
    "greedy_first_fit",
    "smallest_last",
    "smallest_last_order",
    "vertex_order",
    "welsh_powell",
    "speculative_coloring",
    "speculative_rounds",
    "window_first_fit",
    "windowed_speculative_coloring",
]
