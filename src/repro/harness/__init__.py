"""Workload harness: the dataset suite and shared run helpers."""

from .artifacts import (
    ArtifactCache,
    cache_from_env,
    graph_key,
    load_plan_cache,
    save_plan_cache,
)
from .autotune import TuneOutcome, autotune, candidate_configs
from .batch import BatchJob, run_batch, run_batch_cell, save_rows_csv, save_rows_json
from .parallel import (
    SharedGraphRef,
    SharedGraphStore,
    attach_graph,
    derive_seed,
    parallel_map,
    run_batch_parallel,
)
from .runner import (
    CPU_ALGORITHMS,
    GPU_ALGORITHMS,
    run_cpu_coloring,
    run_gpu_coloring,
)
from .suite import SCALES, SUITE, DatasetSpec, build, suite_names, summarize_suite
from .sweeps import grid_points, sweep, sweep1d

__all__ = [
    "CPU_ALGORITHMS",
    "GPU_ALGORITHMS",
    "run_cpu_coloring",
    "run_gpu_coloring",
    "SCALES",
    "SUITE",
    "DatasetSpec",
    "build",
    "suite_names",
    "summarize_suite",
    "grid_points",
    "sweep",
    "sweep1d",
    "TuneOutcome",
    "autotune",
    "candidate_configs",
    "BatchJob",
    "run_batch",
    "run_batch_cell",
    "save_rows_csv",
    "save_rows_json",
    "ArtifactCache",
    "cache_from_env",
    "graph_key",
    "load_plan_cache",
    "save_plan_cache",
    "SharedGraphRef",
    "SharedGraphStore",
    "attach_graph",
    "derive_seed",
    "parallel_map",
    "run_batch_parallel",
]
