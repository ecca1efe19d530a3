"""Unit tests for the Recorder: harness results → store rows."""

import pickle

import pytest

from repro.analysis.experiment import ExperimentRecord
from repro.engine.context import RunContext
from repro.harness.autotune import autotune
from repro.harness.runner import run_gpu_coloring
from repro.harness.suite import build
from repro.store import (
    Recorder,
    RunStore,
    graph_digest,
)


@pytest.fixture
def graph():
    return build("powerlaw", "tiny")


@pytest.fixture
def recorder(tmp_path):
    with Recorder(
        str(tmp_path / "runs.sqlite"), git_rev="testrev", scale="tiny"
    ) as rec:
        yield rec


class TestRecordRun:
    def test_row_matches_result(self, graph, recorder):
        ex = RunContext().executor()
        result = run_gpu_coloring(graph, "maxmin", ex, seed=3)
        digest = recorder.record_run(
            graph=graph,
            result=result,
            seed=3,
            dataset="powerlaw",
            config=ex.config,
            counters=ex.counters,
            wall_ms=12.5,
        )
        assert digest == graph_digest(graph)
        (row,) = recorder.store.runs()
        assert row["dataset"] == "powerlaw"
        assert row["scale"] == "tiny"  # recorder default
        assert row["algorithm"] == result.algorithm
        assert row["cycles"] == float(result.total_cycles)
        assert row["colors"] == result.num_colors
        assert row["seed"] == 3
        assert row["git_rev"] == "testrev"
        assert row["wall_ms"] == 12.5
        assert row["simd_eff"] is not None
        # the graph is resolvable back from its digest
        (g,) = recorder.store.query("SELECT * FROM graphs")
        assert g["digest"] == digest
        assert g["num_vertices"] == graph.num_vertices

    def test_rerun_is_idempotent(self, graph, recorder):
        ex = RunContext().executor()
        result = run_gpu_coloring(graph, "maxmin", ex, seed=0)
        for _ in range(2):
            recorder.record_run(
                graph=graph, result=result, seed=0, config=ex.config
            )
        (row,) = recorder.store.runs()
        assert row["runs_count"] == 2

    def test_with_source_shares_store(self, graph, recorder):
        tagged = recorder.with_source("pipeline:x/y")
        result = run_gpu_coloring(graph, "jp", RunContext().executor(), seed=0)
        tagged.record_run(graph=graph, result=result, seed=0)
        (row,) = recorder.store.runs()
        assert row["source"] == "pipeline:x/y"
        assert tagged.store is recorder.store
        assert tagged.git_rev == "testrev"


class TestRecordExperimentAndTuning:
    def test_record_experiment(self, recorder):
        rec = ExperimentRecord(
            experiment_id="E9",
            paper_artifact="Fig 4",
            paper_claim="c",
            measured="m",
            shape_holds=True,
            details={"speedup": 1.4},
        )
        recorder.record_experiment(rec)
        (row,) = recorder.store.experiments()
        assert row["experiment_id"] == "E9"
        assert row["git_rev"] == "testrev"
        assert row["shape_holds"] == 1

    def test_record_tuning(self, graph, recorder):
        outcome = autotune(graph, probe_fraction=0.3, seed=1)
        recorder.record_tuning(graph, outcome, seed=1, dataset="powerlaw")
        (row,) = recorder.store.query("SELECT * FROM tunings")
        assert row["best_mapping"] == outcome.best.mapping
        assert row["best_cycles"] == float(outcome.best_cycles)

    def test_autotune_records_itself(self, graph, recorder):
        autotune(graph, probe_fraction=0.3, seed=1, recorder=recorder)
        assert recorder.store.counts()["tunings"] == 1


class TestSpec:
    def test_spec_roundtrips_through_pickle(self, recorder):
        spec = recorder.spec
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        rebuilt = clone.build()
        try:
            assert rebuilt.git_rev == "testrev"
            assert rebuilt.scale == "tiny"
        finally:
            rebuilt.close()

    def test_memory_store_refuses_spec(self):
        with Recorder(RunStore(":memory:")) as rec:
            with pytest.raises(ValueError, match="in-memory"):
                _ = rec.spec

