"""repro — GPU graph coloring with load-imbalance optimizations.

A production-quality reproduction of *Che, Rodgers, Beckmann, Reinhardt:
"Graph Coloring on the GPU and Some Techniques to Improve Load
Imbalance"* (IPDPSW 2015), built on a deterministic SIMT timing
simulator standing in for the paper's AMD Radeon HD 7950 (see
DESIGN.md).

Quickstart::

    from repro import RunContext, maxmin_coloring, rmat

    graph = rmat(12, seed=1)
    result = maxmin_coloring(graph, RunContext().executor())
    result.validate(graph)
    print(result.num_colors, result.time_ms)

Public surface (also importable from the subpackages):

* :mod:`repro.graphs` — CSR graphs, generators, I/O, statistics
* :mod:`repro.gpusim` — the SIMT device/timing model
* :mod:`repro.engine` — run context, array backends, cached plans
* :mod:`repro.coloring` — CPU references + simulated GPU algorithms
* :mod:`repro.loadbalance` — partitioning, dynamic fetch, work stealing
* :mod:`repro.harness` — the dataset suite and run helpers
* :mod:`repro.analysis` — tables and experiment records
"""

from .coloring import (
    UNCOLORED,
    ColoringResult,
    ExecutionConfig,
    GPUExecutor,
    InvalidColoringError,
    count_conflicts,
    dsatur,
    greedy_first_fit,
    hybrid_switch_coloring,
    is_valid_coloring,
    jones_plassmann_coloring,
    maxmin_coloring,
    num_colors_used,
    smallest_last,
    speculative_coloring,
    validate_coloring,
    welsh_powell,
)
from .engine import (
    ArrayBackend,
    ExecutionPlan,
    PlanCache,
    RunContext,
    make_backend,
    resolve_context,
)
from .gpusim import RADEON_HD_7950, DeviceConfig, MemoryModel, named_device
from .graphs import (
    CSRGraph,
    barabasi_albert,
    delaunay_mesh,
    erdos_renyi,
    grid_2d,
    grid_3d,
    load_graph,
    random_geometric,
    random_regular,
    rmat,
    summarize,
    watts_strogatz,
)
from .harness import build, run_gpu_coloring
from .loadbalance import StealingConfig, simulate_work_stealing
from .metrics import geometric_mean, imbalance_factor, percent_improvement, speedup

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # coloring
    "UNCOLORED",
    "ColoringResult",
    "ExecutionConfig",
    "GPUExecutor",
    "InvalidColoringError",
    "count_conflicts",
    "dsatur",
    "greedy_first_fit",
    "hybrid_switch_coloring",
    "is_valid_coloring",
    "jones_plassmann_coloring",
    "maxmin_coloring",
    "num_colors_used",
    "smallest_last",
    "speculative_coloring",
    "validate_coloring",
    "welsh_powell",
    # graphs
    "CSRGraph",
    "barabasi_albert",
    "delaunay_mesh",
    "erdos_renyi",
    "grid_2d",
    "grid_3d",
    "load_graph",
    "random_geometric",
    "random_regular",
    "rmat",
    "summarize",
    "watts_strogatz",
    # engine
    "ArrayBackend",
    "ExecutionPlan",
    "PlanCache",
    "RunContext",
    "make_backend",
    "resolve_context",
    # gpusim
    "RADEON_HD_7950",
    "DeviceConfig",
    "MemoryModel",
    "named_device",
    # harness
    "build",
    "run_gpu_coloring",
    # loadbalance
    "StealingConfig",
    "simulate_work_stealing",
    # metrics
    "geometric_mean",
    "imbalance_factor",
    "percent_improvement",
    "speedup",
]
