"""RunStore — the sqlite-backed experiment database.

:class:`RunStore` is the one place runs and experiment verdicts are
recorded, so they can be deduped and queried ("did this PR regress
E8?"). Every run is keyed by its *content* — graph digest,
effective-configuration digest, seed, git revision, scale — so
re-running a cell upserts (refreshing the measurement and bumping a
dedupe counter) instead of adding a duplicate row.

Five tables:

* ``runs`` — one row per executed cell: identity key plus the measured
  outcome (cycles, colors, iterations, simulated ms, host wall ms) and
  the load-imbalance metrics (SIMD efficiency, launch-overhead
  fraction, steal counters).
* ``experiments`` — E1–E17-style reproduction verdicts (paper claim,
  measured summary, shape holds?), keyed by (experiment id, git rev,
  scale).
* ``graphs`` — digest → dataset/scale/size, so a digest in ``runs``
  is always resolvable back to a human name.
* ``tunings`` — autotune outcomes (winner + full scoreboard JSON).
* ``jobs`` — the :mod:`repro.serve` job ledger: submitted specs with
  their dedup digest, lifecycle state, progress, and result rows.
  Because the ledger lives in the same database as the runs it
  produces, ``repro serve --recover`` can re-queue every job a crash
  left non-terminal with nothing but the store file.

Concurrency and durability: connections run in WAL mode with a
generous busy timeout, so parallel harness workers
(:func:`repro.harness.parallel.run_batch_parallel`) can record into
one database file concurrently — the content-keyed upsert makes the
resulting row *set* identical to a serial run regardless of write
order. The schema carries a version (``PRAGMA user_version``) and
opening an old file applies the pending :data:`MIGRATIONS` in order.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import sqlite3
import subprocess
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from ..graphs.csr import CSRGraph

__all__ = [
    "SCHEMA_VERSION",
    "JOB_STATES",
    "TERMINAL_JOB_STATES",
    "MIGRATIONS",
    "RunStore",
    "config_digest",
    "current_git_rev",
    "graph_digest",
    "run_key",
    "store_path_from_env",
]

#: environment knob naming the database file (benches, CLI defaults).
ENV_VAR = "REPRO_RUN_STORE"

#: values of :data:`ENV_VAR` that mean "recording off".
_DISABLED = ("", "0", "off", "none")

#: default database location, next to the benchmark outputs.
DEFAULT_STORE = "benchmarks/results/runs.sqlite"

#: current schema version (``PRAGMA user_version`` of a fresh store).
SCHEMA_VERSION = 3

#: job lifecycle states (see :mod:`repro.serve.model`).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states a job never leaves on its own; everything else is re-queued
#: by ``repro serve --recover`` after a crash.
TERMINAL_JOB_STATES = frozenset({"done", "failed", "cancelled"})

_V1_SQL = """
CREATE TABLE runs (
    id INTEGER PRIMARY KEY,
    graph_digest TEXT NOT NULL,
    dataset TEXT NOT NULL DEFAULT '',
    scale TEXT NOT NULL DEFAULT '',
    algorithm TEXT NOT NULL,
    mapping TEXT NOT NULL DEFAULT 'thread',
    schedule TEXT NOT NULL DEFAULT 'grid',
    config TEXT NOT NULL DEFAULT '{}',
    config_digest TEXT NOT NULL,
    seed INTEGER NOT NULL DEFAULT 0,
    git_rev TEXT NOT NULL DEFAULT 'unknown',
    num_vertices INTEGER NOT NULL DEFAULT 0,
    num_edges INTEGER NOT NULL DEFAULT 0,
    cycles REAL NOT NULL DEFAULT 0.0,
    colors INTEGER NOT NULL DEFAULT 0,
    iterations INTEGER NOT NULL DEFAULT 0,
    time_ms REAL NOT NULL DEFAULT 0.0,
    simd_eff REAL,
    launch_fraction REAL,
    steal_attempts INTEGER NOT NULL DEFAULT 0,
    steals_succeeded INTEGER NOT NULL DEFAULT 0,
    chunks_migrated INTEGER NOT NULL DEFAULT 0,
    wall_ms REAL,
    source TEXT NOT NULL DEFAULT 'api',
    runs_count INTEGER NOT NULL DEFAULT 1,
    created_at TEXT NOT NULL DEFAULT '',
    UNIQUE (graph_digest, config_digest, seed, git_rev, scale)
);
CREATE INDEX idx_runs_dataset ON runs (dataset, algorithm);
CREATE TABLE experiments (
    id INTEGER PRIMARY KEY,
    experiment_id TEXT NOT NULL,
    paper_artifact TEXT NOT NULL DEFAULT '',
    paper_claim TEXT NOT NULL DEFAULT '',
    measured TEXT NOT NULL DEFAULT '',
    shape_holds INTEGER NOT NULL DEFAULT 0,
    details TEXT NOT NULL DEFAULT '{}',
    git_rev TEXT NOT NULL DEFAULT 'unknown',
    scale TEXT NOT NULL DEFAULT '',
    created_at TEXT NOT NULL DEFAULT '',
    UNIQUE (experiment_id, git_rev, scale)
);
CREATE TABLE graphs (
    digest TEXT PRIMARY KEY,
    dataset TEXT NOT NULL DEFAULT '',
    scale TEXT NOT NULL DEFAULT '',
    num_vertices INTEGER NOT NULL DEFAULT 0,
    num_edges INTEGER NOT NULL DEFAULT 0
);
"""

_V2_SQL = """
CREATE TABLE tunings (
    id INTEGER PRIMARY KEY,
    graph_digest TEXT NOT NULL,
    dataset TEXT NOT NULL DEFAULT '',
    scale TEXT NOT NULL DEFAULT '',
    seed INTEGER NOT NULL DEFAULT 0,
    git_rev TEXT NOT NULL DEFAULT 'unknown',
    best_mapping TEXT NOT NULL DEFAULT '',
    best_schedule TEXT NOT NULL DEFAULT '',
    best_config TEXT NOT NULL DEFAULT '{}',
    best_cycles REAL NOT NULL DEFAULT 0.0,
    scoreboard TEXT NOT NULL DEFAULT '[]',
    created_at TEXT NOT NULL DEFAULT '',
    UNIQUE (graph_digest, seed, git_rev, scale)
);
"""

_V3_SQL = """
CREATE TABLE jobs (
    id INTEGER PRIMARY KEY,
    job_id TEXT NOT NULL UNIQUE,
    kind TEXT NOT NULL,
    spec TEXT NOT NULL DEFAULT '{}',
    spec_digest TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    cells INTEGER NOT NULL DEFAULT 0,
    cells_done INTEGER NOT NULL DEFAULT 0,
    attempts INTEGER NOT NULL DEFAULT 0,
    error TEXT NOT NULL DEFAULT '',
    result TEXT,
    submitted_at TEXT NOT NULL DEFAULT '',
    started_at TEXT,
    finished_at TEXT
);
CREATE INDEX idx_jobs_digest ON jobs (spec_digest, state);
CREATE INDEX idx_jobs_state ON jobs (state);
"""

#: version → DDL applied when upgrading *to* that version, in order.
MIGRATIONS: dict[int, str] = {1: _V1_SQL, 2: _V2_SQL, 3: _V3_SQL}

#: ``runs`` columns that identify + measure a cell; everything a
#: deterministic rerun reproduces exactly. Volatile columns (id,
#: wall_ms, runs_count, created_at) are deliberately absent so
#: ``canonical_rows`` compares equal across serial/parallel runs.
CANONICAL_RUN_COLUMNS = (
    "graph_digest",
    "dataset",
    "scale",
    "algorithm",
    "mapping",
    "schedule",
    "config",
    "config_digest",
    "seed",
    "git_rev",
    "num_vertices",
    "num_edges",
    "cycles",
    "colors",
    "iterations",
    "time_ms",
    "simd_eff",
    "launch_fraction",
    "steal_attempts",
    "steals_succeeded",
    "chunks_migrated",
    "source",
)


# ----------------------------------------------------------------------
# digests and keys
# ----------------------------------------------------------------------


def graph_digest(graph: "CSRGraph") -> str:
    """Content digest of a CSR graph (same hash as the artifact cache)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(graph.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.indices, dtype=np.int32).tobytes())
    return h.hexdigest()


def _jsonable(value: Any) -> Any:
    """Coerce dataclasses/numpy scalars into canonical JSON values."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def canonical_config(
    algorithm: str, config: Any, algo_kwargs: dict | None = None
) -> str:
    """Canonical JSON of a cell's *effective* configuration.

    ``config`` may be an :class:`ExecutionConfig` (preferred — two
    paths that build the same effective config digest identically) or a
    plain kwargs dict. ``algo_kwargs`` captures algorithm-level knobs
    (``switch_fraction``, ``priority``, ...) that live outside the
    execution config but change the run.
    """
    doc = {
        "algorithm": algorithm,
        "config": _jsonable(config),
        "algo": _jsonable(algo_kwargs or {}),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_digest(
    algorithm: str, config: Any, algo_kwargs: dict | None = None
) -> str:
    """Stable digest of :func:`canonical_config`."""
    payload = canonical_config(algorithm, config, algo_kwargs)
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def run_key(row: dict[str, Any]) -> str:
    """Baseline-comparison key of a ``runs`` row.

    Deliberately excludes ``git_rev`` — the whole point of
    ``repro report`` is comparing the same cell *across* revisions.
    """
    return (
        f"{row['dataset']}@{row['scale']}/{row['algorithm']}"
        f":{row['mapping']}+{row['schedule']}"
        f"@seed{row['seed']}#{str(row['config_digest'])[:12]}"
    )


_GIT_REV_CACHE: dict[str, str] = {}


def current_git_rev(cwd: str | Path | None = None) -> str:
    """Short git revision of ``cwd`` (cached; ``REPRO_GIT_REV`` wins)."""
    override = os.environ.get("REPRO_GIT_REV")
    if override:
        return override
    key = str(Path(cwd) if cwd is not None else Path.cwd())
    if key not in _GIT_REV_CACHE:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=key,
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
            rev = proc.stdout.strip() if proc.returncode == 0 else ""
        except (OSError, subprocess.SubprocessError):
            rev = ""
        _GIT_REV_CACHE[key] = rev or "unknown"
    return _GIT_REV_CACHE[key]


def store_path_from_env(default: str | Path = DEFAULT_STORE) -> Path | None:
    """The store path named by :envvar:`REPRO_RUN_STORE`.

    ``None`` when the variable is set to a disabling value
    (``""``/``"0"``/``"off"``/``"none"``); ``default`` when unset.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return Path(default)
    if raw.strip().lower() in _DISABLED:
        return None
    return Path(raw)


def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


class RunStore:
    """One sqlite experiment database (see the module docstring).

    Open it as a context manager or call :meth:`close`; every write
    commits immediately, so a crash between records loses at most the
    in-flight row. ``":memory:"`` is accepted for tests.
    """

    def __init__(self, path: str | Path = DEFAULT_STORE) -> None:
        self.path = Path(path) if str(path) != ":memory:" else path
        if isinstance(self.path, Path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.conn = sqlite3.connect(str(self.path), timeout=30.0)
        # Anything after connect() can raise (a failing migration, the
        # newer-file refusal); without the close the half-built store
        # would leak an open WAL handle (and its -wal/-shm sidecars).
        try:
            self.conn.row_factory = sqlite3.Row
            self.conn.execute("PRAGMA journal_mode=WAL")
            self.conn.execute("PRAGMA busy_timeout=30000")
            self.conn.execute("PRAGMA synchronous=NORMAL")
            self._migrate()
        except BaseException:
            self.conn.close()
            raise

    # -- lifecycle ------------------------------------------------------

    def _migrate(self) -> None:
        version = self.schema_version()
        if version > SCHEMA_VERSION:
            raise RuntimeError(
                f"store {self.path} has schema v{version}, newer than this "
                f"code's v{SCHEMA_VERSION}; refusing to open"
            )
        for target in range(version + 1, SCHEMA_VERSION + 1):
            with self.conn:  # one transaction per migration step
                self.conn.executescript(MIGRATIONS[target])
                self.conn.execute(f"PRAGMA user_version={target}")

    def schema_version(self) -> int:
        return int(self.conn.execute("PRAGMA user_version").fetchone()[0])

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writes ---------------------------------------------------------

    def upsert_run(self, row: dict[str, Any]) -> None:
        """Insert or refresh one run row (idempotent on the content key).

        A re-run of the same (graph, config, seed, rev, scale) cell
        replaces the measurement columns and bumps ``runs_count``
        instead of appending a duplicate.
        """
        full = {
            "graph_digest": "",
            "dataset": "",
            "scale": "",
            "algorithm": "",
            "mapping": "thread",
            "schedule": "grid",
            "config": "{}",
            "config_digest": "",
            "seed": 0,
            "git_rev": "unknown",
            "num_vertices": 0,
            "num_edges": 0,
            "cycles": 0.0,
            "colors": 0,
            "iterations": 0,
            "time_ms": 0.0,
            "simd_eff": None,
            "launch_fraction": None,
            "steal_attempts": 0,
            "steals_succeeded": 0,
            "chunks_migrated": 0,
            "wall_ms": None,
            "source": "api",
            "created_at": _utcnow(),
        }
        unknown = set(row) - set(full)
        if unknown:
            raise KeyError(f"unknown runs columns: {sorted(unknown)}")
        full.update(row)
        cols = list(full)
        updates = [
            c
            for c in cols
            if c not in ("graph_digest", "config_digest", "seed", "git_rev", "scale")
        ]
        sql = (
            f"INSERT INTO runs ({', '.join(cols)}) "
            f"VALUES ({', '.join(':' + c for c in cols)}) "
            "ON CONFLICT (graph_digest, config_digest, seed, git_rev, scale) "
            "DO UPDATE SET "
            + ", ".join(f"{c}=excluded.{c}" for c in updates)
            + ", runs_count=runs.runs_count+1"
        )
        with self.conn:
            self.conn.execute(sql, full)

    def upsert_graph(
        self,
        digest: str,
        *,
        dataset: str = "",
        scale: str = "",
        num_vertices: int = 0,
        num_edges: int = 0,
    ) -> None:
        with self.conn:
            self.conn.execute(
                "INSERT INTO graphs (digest, dataset, scale, num_vertices, num_edges) "
                "VALUES (?, ?, ?, ?, ?) ON CONFLICT (digest) DO UPDATE SET "
                "dataset=excluded.dataset, scale=excluded.scale, "
                "num_vertices=excluded.num_vertices, num_edges=excluded.num_edges",
                (digest, dataset, scale, int(num_vertices), int(num_edges)),
            )

    def upsert_experiment(
        self,
        *,
        experiment_id: str,
        paper_artifact: str = "",
        paper_claim: str = "",
        measured: str = "",
        shape_holds: bool = False,
        details: dict | None = None,
        git_rev: str = "unknown",
        scale: str = "",
    ) -> None:
        with self.conn:
            self.conn.execute(
                "INSERT INTO experiments (experiment_id, paper_artifact, "
                "paper_claim, measured, shape_holds, details, git_rev, scale, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (experiment_id, git_rev, scale) DO UPDATE SET "
                "paper_artifact=excluded.paper_artifact, "
                "paper_claim=excluded.paper_claim, measured=excluded.measured, "
                "shape_holds=excluded.shape_holds, details=excluded.details, "
                "created_at=excluded.created_at",
                (
                    experiment_id,
                    paper_artifact,
                    paper_claim,
                    measured,
                    int(bool(shape_holds)),
                    json.dumps(_jsonable(details or {}), sort_keys=True),
                    git_rev,
                    scale,
                    _utcnow(),
                ),
            )

    def upsert_tuning(
        self,
        *,
        graph_digest: str,
        dataset: str = "",
        scale: str = "",
        seed: int = 0,
        git_rev: str = "unknown",
        best_mapping: str = "",
        best_schedule: str = "",
        best_config: dict | None = None,
        best_cycles: float = 0.0,
        scoreboard: list | None = None,
    ) -> None:
        with self.conn:
            self.conn.execute(
                "INSERT INTO tunings (graph_digest, dataset, scale, seed, "
                "git_rev, best_mapping, best_schedule, best_config, "
                "best_cycles, scoreboard, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (graph_digest, seed, git_rev, scale) DO UPDATE SET "
                "best_mapping=excluded.best_mapping, "
                "best_schedule=excluded.best_schedule, "
                "best_config=excluded.best_config, "
                "best_cycles=excluded.best_cycles, "
                "scoreboard=excluded.scoreboard, created_at=excluded.created_at",
                (
                    graph_digest,
                    dataset,
                    scale,
                    int(seed),
                    git_rev,
                    best_mapping,
                    best_schedule,
                    json.dumps(_jsonable(best_config or {}), sort_keys=True),
                    float(best_cycles),
                    json.dumps(_jsonable(scoreboard or []), sort_keys=True),
                    _utcnow(),
                ),
            )

    # -- jobs (the repro.serve ledger) ----------------------------------

    def insert_job(
        self,
        *,
        job_id: str,
        kind: str,
        spec: str,
        spec_digest: str,
        cells: int = 0,
    ) -> None:
        """Record a freshly submitted job (state ``queued``)."""
        with self.conn:
            self.conn.execute(
                "INSERT INTO jobs (job_id, kind, spec, spec_digest, state, "
                "cells, submitted_at) VALUES (?, ?, ?, ?, 'queued', ?, ?)",
                (job_id, kind, spec, spec_digest, int(cells), _utcnow()),
            )

    def job(self, job_id: str) -> dict[str, Any] | None:
        """One job row by id, or ``None``."""
        row = self.conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        return dict(row) if row is not None else None

    _JOB_MUTABLE = frozenset(
        {
            "state",
            "cells",
            "cells_done",
            "attempts",
            "error",
            "result",
            "started_at",
            "finished_at",
        }
    )

    def update_job(self, job_id: str, **fields: Any) -> None:
        """Update whitelisted columns of one job row."""
        unknown = set(fields) - self._JOB_MUTABLE
        if unknown:
            raise KeyError(f"immutable/unknown jobs columns: {sorted(unknown)}")
        if "state" in fields and fields["state"] not in JOB_STATES:
            raise ValueError(f"unknown job state {fields['state']!r}")
        if not fields:
            return
        cols = sorted(fields)
        with self.conn:
            self.conn.execute(
                f"UPDATE jobs SET {', '.join(f'{c} = :{c}' for c in cols)} "
                "WHERE job_id = :job_id",
                {**fields, "job_id": job_id},
            )

    def jobs_by_digest(self, spec_digest: str) -> list[dict[str, Any]]:
        """Jobs sharing one dedup digest, newest first."""
        return self.query(
            "SELECT * FROM jobs WHERE spec_digest = ? ORDER BY id DESC",
            (spec_digest,),
        )

    def list_jobs(
        self, *, state: str | None = None, limit: int | None = None
    ) -> list[dict[str, Any]]:
        """Job rows (newest first), optionally filtered by state."""
        sql = "SELECT * FROM jobs"
        params: tuple = ()
        if state is not None:
            sql += " WHERE state = ?"
            params = (state,)
        sql += " ORDER BY id DESC"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return self.query(sql, params)

    def reset_interrupted_jobs(self) -> list[str]:
        """Re-queue every non-terminal job; returns their ids, oldest first.

        The recovery primitive behind ``repro serve --recover``: jobs a
        dead server left ``queued`` or ``running`` go back to ``queued``
        (keeping their attempt count) so a fresh executor re-runs them.
        Terminal jobs are untouched.
        """
        rows = self.query(
            "SELECT job_id FROM jobs "
            "WHERE state NOT IN ('done', 'failed', 'cancelled') ORDER BY id"
        )
        ids = [str(r["job_id"]) for r in rows]
        if ids:
            with self.conn:
                self.conn.executemany(
                    "UPDATE jobs SET state = 'queued', started_at = NULL "
                    "WHERE job_id = ?",
                    [(i,) for i in ids],
                )
        return ids

    # -- queries --------------------------------------------------------

    def query(self, sql: str, params: tuple = ()) -> list[dict[str, Any]]:
        """Arbitrary read query, rows as plain dicts."""
        return [dict(r) for r in self.conn.execute(sql, params).fetchall()]

    def runs(
        self,
        *,
        dataset: str | None = None,
        algorithm: str | None = None,
        scale: str | None = None,
        git_rev: str | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Run rows (newest first), optionally filtered."""
        clauses, params = [], []
        for col, val in (
            ("dataset", dataset),
            ("algorithm", algorithm),
            ("scale", scale),
            ("git_rev", git_rev),
        ):
            if val is not None:
                clauses.append(f"{col} = ?")
                params.append(val)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id DESC"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return self.query(sql, tuple(params))

    def canonical_rows(self) -> list[tuple]:
        """The deterministic content of ``runs``, as a sorted row list.

        Excludes volatile columns (autoincrement id, wall time, dedupe
        counter, timestamps), so two stores populated by the same cells
        — serially or across worker processes — compare equal.
        """
        cols = ", ".join(CANONICAL_RUN_COLUMNS)
        rows = self.conn.execute(f"SELECT {cols} FROM runs").fetchall()
        return sorted(tuple(r) for r in rows)

    def latest_runs(self) -> dict[str, dict[str, Any]]:
        """Newest run row per baseline key (:func:`run_key`)."""
        latest: dict[str, dict[str, Any]] = {}
        for row in self.query("SELECT * FROM runs ORDER BY id"):
            latest[run_key(row)] = row
        return latest

    def experiments(
        self, *, scale: str | None = None, latest_only: bool = True
    ) -> list[dict[str, Any]]:
        """Experiment verdict rows; newest per experiment id by default."""
        sql = "SELECT * FROM experiments"
        params: tuple = ()
        if scale is not None:
            sql += " WHERE scale = ?"
            params = (scale,)
        sql += " ORDER BY id"
        rows = self.query(sql, params)
        if not latest_only:
            return rows
        latest: dict[str, dict[str, Any]] = {}
        for row in rows:
            latest[row["experiment_id"]] = row
        return [latest[k] for k in sorted(latest)]

    def counts(self) -> dict[str, int]:
        """Row counts per table (``repro db info``)."""
        return {
            table: int(
                self.conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            )
            for table in ("runs", "experiments", "graphs", "tunings", "jobs")
        }
