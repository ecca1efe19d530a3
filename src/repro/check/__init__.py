"""``repro.check`` — invariant validators, race detection, and lint.

The correctness toolbox that lets performance work refactor hot paths
without fear. Four pillars:

* :mod:`~repro.check.validators` — post-run invariant validators:
  proper-coloring, CSR structure, scheduler/trace sanity. Every check
  produces a :class:`~repro.check.validators.Report` instead of
  raising, so a validation pass can collect *all* violations at once.
* :mod:`~repro.check.races` — a simulated-race detector: runs an
  algorithm's certified kernel specs per thread and records every
  global-array access in an :class:`~repro.check.races.AccessLog`
  (per-array-index reads/writes tagged by wavefront and kernel step),
  then flags conflicting same-step accesses from different wavefronts
  that lack an atomic/sync edge.
* :mod:`~repro.check.determinism` — golden run digests (colors +
  cycles + steal counts hashed) with drift detection and run diffing.
* :mod:`~repro.check.lint` — a repo-specific AST lint pass (seeded
  RNG, no wall-clock in the simulated-cycle domain, no CSR mutation
  inside kernels, no unbounded trace appends), loop-context-aware via
  the flow package's CFG walker.
* :mod:`~repro.check.flow` — dataflow-based static analysis of the
  device kernels: CFG construction, a generic worklist fixed-point
  framework, thread-variance/coalescing classification, and a static
  load-imbalance predictor from symbolic per-thread work models.
* :mod:`~repro.check.flow.memsafe` — the static race-freedom and
  memory-safety verifier over the kernel specs: per-array verdicts
  (race-free / synchronized / atomic-only / may-race with a symbolic
  witness), in-bounds proofs under the CSR invariants, and a
  cross-check that the static verdicts agree with the dynamic scan.
  Both layers share one conflict-rule/sync-edge definition,
  :mod:`~repro.check.concurrency`.

Surfaced through ``repro check
{validate,races,lint,golden,flow,verify}`` on the CLI and the
``--validate`` flag on ``color``/runner/batch.
"""

from .concurrency import INPLACE_ARRAYS, classify_bucket, expected_racy, inplace_arrays
from .determinism import (
    DriftReport,
    RunDigest,
    check_drift,
    compare_runs,
    digest_result,
    golden_digests,
    load_golden,
    save_golden,
)
from .flow import (
    AccessClass,
    AlgorithmFlowReport,
    AlgorithmMemReport,
    ImbalancePrediction,
    KernelFlowReport,
    KernelMemReport,
    Variance,
    WorkModel,
    analyze_algorithm,
    analyze_kernel,
    cross_check,
    predict_imbalance,
    spearman,
    verify_algorithm,
    verify_device_kernels,
    work_model,
)
from .lint import LintViolation, lint_paths, lint_source
from .races import AccessLog, RaceFinding, RaceScan, detect_races, scan_algorithm_races
from .validators import (
    CheckFailedError,
    Issue,
    Report,
    validate_coloring,
    validate_csr,
    validate_dispatch,
    validate_run,
    validate_trace,
)

__all__ = [
    "AccessClass",
    "AccessLog",
    "AlgorithmFlowReport",
    "AlgorithmMemReport",
    "CheckFailedError",
    "INPLACE_ARRAYS",
    "KernelMemReport",
    "DriftReport",
    "ImbalancePrediction",
    "Issue",
    "KernelFlowReport",
    "LintViolation",
    "RaceFinding",
    "RaceScan",
    "Report",
    "RunDigest",
    "Variance",
    "WorkModel",
    "analyze_algorithm",
    "analyze_kernel",
    "check_drift",
    "classify_bucket",
    "compare_runs",
    "cross_check",
    "detect_races",
    "expected_racy",
    "digest_result",
    "golden_digests",
    "inplace_arrays",
    "lint_paths",
    "lint_source",
    "load_golden",
    "predict_imbalance",
    "save_golden",
    "scan_algorithm_races",
    "spearman",
    "verify_algorithm",
    "verify_device_kernels",
    "work_model",
    "validate_coloring",
    "validate_csr",
    "validate_dispatch",
    "validate_run",
    "validate_trace",
]
