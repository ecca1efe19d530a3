"""Recorder — the harness's handle on the run database.

A :class:`Recorder` binds a :class:`~repro.store.db.RunStore` to the
run-level metadata every row shares (git revision, default scale, a
``source`` tag saying which layer produced it) and exposes the three
verbs the harness needs: :meth:`record_run` for a finished coloring,
:meth:`record_experiment` for a reproduction verdict, and
:meth:`record_tuning` for an autotune outcome.

Recorders cross process boundaries as :class:`RecorderSpec` — a plain
picklable description (database path + metadata). Parallel harness
workers rebuild a recorder from the spec and write concurrently into
the same WAL-mode database; the content-keyed upsert keeps the
resulting row set identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .db import RunStore, config_digest, current_git_rev, graph_digest

if TYPE_CHECKING:
    from ..analysis.experiment import ExperimentRecord
    from ..coloring.base import ColoringResult
    from ..graphs.csr import CSRGraph
    from ..gpusim.counters import ExecutionCounters
    from ..harness.autotune import TuneOutcome

__all__ = ["Recorder", "RecorderSpec"]


@dataclass(frozen=True)
class RecorderSpec:
    """Picklable recipe for rebuilding a :class:`Recorder` in a worker."""

    path: str
    git_rev: str = "unknown"
    scale: str = ""
    source: str = "api"

    def build(self) -> "Recorder":
        return Recorder(
            RunStore(self.path),
            git_rev=self.git_rev,
            scale=self.scale,
            source=self.source,
        )


class Recorder:
    """Writes harness results into a :class:`RunStore` (see module doc)."""

    def __init__(
        self,
        store: RunStore | str,
        *,
        git_rev: str | None = None,
        scale: str = "",
        source: str = "api",
    ) -> None:
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.git_rev = git_rev if git_rev is not None else current_git_rev()
        self.scale = scale
        self.source = source

    # -- plumbing -------------------------------------------------------

    @property
    def spec(self) -> RecorderSpec:
        """Spec for rebuilding this recorder in another process."""
        path = str(self.store.path)
        if path == ":memory:":
            raise ValueError("an in-memory store cannot cross processes")
        return RecorderSpec(
            path=path, git_rev=self.git_rev, scale=self.scale, source=self.source
        )

    def with_source(self, source: str) -> "Recorder":
        """Same store and metadata, different ``source`` tag."""
        clone = Recorder.__new__(Recorder)
        clone.store = self.store
        clone.git_rev = self.git_rev
        clone.scale = self.scale
        clone.source = source
        return clone

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- verbs ----------------------------------------------------------

    def record_run(
        self,
        *,
        graph: "CSRGraph",
        result: "ColoringResult",
        seed: int,
        dataset: str = "",
        scale: str | None = None,
        mapping: str = "thread",
        schedule: str = "grid",
        config: Any = None,
        algo_kwargs: dict | None = None,
        counters: "ExecutionCounters | None" = None,
        wall_ms: float | None = None,
    ) -> str:
        """Upsert one finished coloring; returns the graph digest.

        ``config`` should be the *effective* :class:`ExecutionConfig`
        (so different call paths that resolve to the same configuration
        share a digest); a plain kwargs dict is accepted too.
        """
        from .db import canonical_config

        scale = self.scale if scale is None else scale
        gdigest = graph_digest(graph)
        cdigest = config_digest(result.algorithm, config, algo_kwargs)
        simd_eff = launch_fraction = None
        steal_attempts = steals_succeeded = chunks_migrated = 0
        if counters is not None:
            simd_eff = float(counters.mean_simd_efficiency)
            launch_fraction = float(counters.launch_overhead_fraction)
            steal_attempts = int(counters.steal_attempts)
            steals_succeeded = int(counters.steals_succeeded)
            chunks_migrated = int(counters.chunks_migrated)
        self.store.upsert_graph(
            gdigest,
            dataset=dataset,
            scale=scale,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
        self.store.upsert_run(
            {
                "graph_digest": gdigest,
                "dataset": dataset,
                "scale": scale,
                "algorithm": result.algorithm,
                "mapping": mapping,
                "schedule": schedule,
                "config": canonical_config(result.algorithm, config, algo_kwargs),
                "config_digest": cdigest,
                "seed": int(seed),
                "git_rev": self.git_rev,
                "num_vertices": int(graph.num_vertices),
                "num_edges": int(graph.num_edges),
                "cycles": float(result.total_cycles),
                "colors": int(result.num_colors),
                "iterations": int(result.num_iterations),
                "time_ms": float(result.time_ms),
                "simd_eff": simd_eff,
                "launch_fraction": launch_fraction,
                "steal_attempts": steal_attempts,
                "steals_succeeded": steals_succeeded,
                "chunks_migrated": chunks_migrated,
                "wall_ms": float(wall_ms) if wall_ms is not None else None,
                "source": self.source,
            }
        )
        return gdigest

    def record_experiment(
        self, record: "ExperimentRecord", *, scale: str | None = None
    ) -> None:
        """Upsert one reproduction verdict (E1–E17-style record)."""
        self.store.upsert_experiment(
            experiment_id=record.experiment_id,
            paper_artifact=record.paper_artifact,
            paper_claim=record.paper_claim,
            measured=record.measured,
            shape_holds=bool(record.shape_holds),
            details=dict(record.details),
            git_rev=self.git_rev,
            scale=self.scale if scale is None else scale,
        )

    def record_tuning(
        self,
        graph: "CSRGraph",
        outcome: "TuneOutcome",
        *,
        seed: int,
        dataset: str = "",
        scale: str | None = None,
    ) -> None:
        """Upsert one autotune outcome (winner + scoreboard)."""
        from dataclasses import asdict

        best = outcome.best
        self.store.upsert_tuning(
            graph_digest=graph_digest(graph),
            dataset=dataset,
            scale=self.scale if scale is None else scale,
            seed=seed,
            git_rev=self.git_rev,
            best_mapping=best.mapping,
            best_schedule=best.schedule,
            best_config=asdict(best),
            best_cycles=float(outcome.best_cycles),
            scoreboard=[
                {"config": asdict(cfg), "probe_cycles": float(cycles)}
                for cfg, cycles in outcome.scoreboard
            ],
        )
