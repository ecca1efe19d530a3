"""Workload harness: the dataset suite and shared run helpers."""

from .autotune import TuneOutcome, autotune, candidate_configs
from .batch import BatchJob, run_batch, run_batch_cell, save_rows_csv, save_rows_json
from .parallel import parallel_map, run_batch_parallel
from .runner import (
    CPU_ALGORITHMS,
    GPU_ALGORITHMS,
    run_cpu_coloring,
    run_gpu_coloring,
)
from .suite import SCALES, SUITE, DatasetSpec, build, suite_names, summarize_suite

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
    "TuneOutcome",
    "autotune",
    "candidate_configs",
    "BatchJob",
    "run_batch",
    "run_batch_cell",
    "save_rows_csv",
    "save_rows_json",
    "parallel_map",
    "run_batch_parallel",
]
