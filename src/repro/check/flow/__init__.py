"""Dataflow-based static analysis of device kernels.

Layers (each building on the previous):

* :mod:`~repro.check.flow.cfg` — control-flow graphs over function
  ASTs: basic blocks, dominators/postdominators, control dependence,
  loop nesting.
* :mod:`~repro.check.flow.dataflow` — the generic worklist fixed-point
  solver plus two classic clients (reaching definitions, live
  variables).
* :mod:`~repro.check.flow.divergence` — the thread-variance lattice
  (UNIFORM ⊑ WAVEFRONT ⊑ THREAD) and affine-in-lane values: classifies
  every branch as uniform/divergent and every global subscript as
  broadcast/coalesced/strided/scattered.
* :mod:`~repro.check.flow.imbalance` — symbolic per-thread work
  polynomials in vertex degree and the static load-imbalance predictor
  that replays the persistent-schedule chunking over a graph's degree
  distribution.
* :mod:`~repro.check.flow.regions` /
  :mod:`~repro.check.flow.memsafe` — symbolic affine access regions
  under the CSR structural invariants and the static race-freedom /
  memory-safety verifier built on them: per-array verdicts
  (race-free, synchronized, atomic-only, may-race with a witness),
  in-bounds proofs for every subscript, and the cross-check against
  the dynamic race scan.
* :mod:`~repro.check.flow.types` /
  :mod:`~repro.check.flow.overflow` — the dtype/shape inference
  lattice (seeded by the specs' declared ``param_dtypes``) that
  rejects implicit mixed-dtype arithmetic and unsound narrowing, and
  the value-range analysis over the same affine domain that certifies
  each integer intermediate as fits-int32 / needs-int64 under
  explicit scale premises.

The kernels analyzed are the executable per-thread specs in
:mod:`repro.coloring.device_kernels`, which the test suite runs
against the vectorized implementations so the specs cannot drift.
"""

from .cfg import CFG, BasicBlock, Loop, UnsupportedConstructError, build_cfg
from .dataflow import (
    DataflowAnalysis,
    DataflowResult,
    Definition,
    LiveVariables,
    ReachingDefinitions,
    solve,
)
from .divergence import (
    AbsVal,
    AccessClass,
    AlgorithmFlowReport,
    BranchInfo,
    KernelFlowReport,
    LoopInfo,
    MemAccess,
    Variance,
    analyze_algorithm,
    analyze_kernel,
)
from .imbalance import (
    ImbalancePrediction,
    SymLin,
    WorkModel,
    algorithm_work_models,
    predict_imbalance,
    spearman,
    work_model,
)
from .memsafe import (
    AccessSite,
    AlgorithmMemReport,
    ArrayVerdict,
    CrossCheckRow,
    KernelMemReport,
    RaceWitness,
    cross_check,
    verify_algorithm,
    verify_device_kernels,
    verify_kernel,
    verify_kernels,
)
from .overflow import (
    PREMISES,
    KernelOverflowReport,
    ValueRange,
    certify_all,
    certify_kernel,
    eval_at,
)
from .regions import Bounder, IVal, LinExpr, SymRange, array_length, load_value
from .types import (
    AbsType,
    ArrayType,
    KernelTypeReport,
    TypeIssue,
    infer_all_types,
    infer_kernel_types,
    parse_dtype,
)

__all__ = [
    "CFG",
    "BasicBlock",
    "Loop",
    "UnsupportedConstructError",
    "build_cfg",
    "DataflowAnalysis",
    "DataflowResult",
    "Definition",
    "LiveVariables",
    "ReachingDefinitions",
    "solve",
    "AbsVal",
    "AccessClass",
    "AlgorithmFlowReport",
    "BranchInfo",
    "KernelFlowReport",
    "LoopInfo",
    "MemAccess",
    "Variance",
    "analyze_algorithm",
    "analyze_kernel",
    "ImbalancePrediction",
    "SymLin",
    "WorkModel",
    "algorithm_work_models",
    "predict_imbalance",
    "spearman",
    "work_model",
    "AccessSite",
    "AlgorithmMemReport",
    "ArrayVerdict",
    "Bounder",
    "CrossCheckRow",
    "IVal",
    "KernelMemReport",
    "LinExpr",
    "RaceWitness",
    "SymRange",
    "array_length",
    "cross_check",
    "load_value",
    "verify_algorithm",
    "verify_device_kernels",
    "verify_kernel",
    "verify_kernels",
    "AbsType",
    "ArrayType",
    "KernelTypeReport",
    "TypeIssue",
    "infer_all_types",
    "infer_kernel_types",
    "parse_dtype",
    "PREMISES",
    "KernelOverflowReport",
    "ValueRange",
    "certify_all",
    "certify_kernel",
    "eval_at",
]
