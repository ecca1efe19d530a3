"""repro.store — the persistent experiment database.

The only writer of runs and experiment verdicts:

* :mod:`repro.store.db` — :class:`RunStore`, a WAL-mode sqlite store
  with a versioned/migrated schema and content-keyed idempotent
  upserts (re-runs dedupe instead of append).
* :mod:`repro.store.recorder` — :class:`Recorder`, the handle the
  harness (runner, batch, parallel workers, autotune, benches) threads
  through to land every run in the store.
* :mod:`repro.store.pipeline` — declarative experiment matrices
  (suite → cells → records) runnable by name or JSON spec.
* :mod:`repro.store.report` — baseline snapshots and the
  ``repro report`` regression gate.
"""

from .db import (
    JOB_STATES,
    MIGRATIONS,
    SCHEMA_VERSION,
    TERMINAL_JOB_STATES,
    RunStore,
    config_digest,
    current_git_rev,
    graph_digest,
    run_key,
    store_path_from_env,
)
from .pipeline import (
    PIPELINES,
    Pipeline,
    PipelineStep,
    load_pipeline,
    pipeline_from_spec,
    resolve_pipeline,
    run_pipeline,
)
from .recorder import Recorder, RecorderSpec
from .report import (
    Regression,
    RegressionReport,
    Thresholds,
    compare,
    load_baseline,
    save_baseline,
    snapshot,
)

__all__ = [
    "JOB_STATES",
    "MIGRATIONS",
    "PIPELINES",
    "Pipeline",
    "PipelineStep",
    "Recorder",
    "RecorderSpec",
    "Regression",
    "RegressionReport",
    "RunStore",
    "SCHEMA_VERSION",
    "TERMINAL_JOB_STATES",
    "Thresholds",
    "compare",
    "config_digest",
    "current_git_rev",
    "graph_digest",
    "load_baseline",
    "load_pipeline",
    "pipeline_from_spec",
    "resolve_pipeline",
    "run_key",
    "run_pipeline",
    "save_baseline",
    "snapshot",
    "store_path_from_env",
]
