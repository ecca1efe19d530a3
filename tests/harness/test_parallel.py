"""Tests for the parallel harness: pools, batch payloads, store rows.

The contract under test is *determinism*: a parallel run may change
wall-clock, never results.  Rows must be bit-identical at any worker
count and under both start methods, merged traces must read like a
serial run, and recorded store rows must match a serial run's.
"""

import pytest

from repro.engine.context import RunContext
from repro.gpusim.device import RADEON_HD_7950
from repro.graphs import generators as gen
from repro.harness.batch import BatchJob, run_batch
from repro.harness.parallel import parallel_map
from repro.obs.registry import MetricsRegistry

JOBS = [
    BatchJob("road"),
    BatchJob("road", algorithm="jp"),
    BatchJob("powerlaw", mapping="hybrid"),
    BatchJob("powerlaw", algorithm="jp", schedule="stealing"),
    BatchJob("grid2d", config={"chunk_size": 512}),
    BatchJob("rmat", schedule="stealing"),
]


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError("worker crashed on purpose")


def _graph_probe(graph) -> tuple[int, bool]:
    """Worker-side probe: edge count and whether the arrays are writable."""
    writable = graph.indptr.flags.writeable or graph.indices.flags.writeable
    return graph.num_edges, writable


class TestParallelMap:
    def test_inline_when_single_job(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_ordered_results_across_workers(self):
        items = list(range(40))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="on purpose"):
            parallel_map(_boom, [1, 2, 3], jobs=2)

    def test_graph_payload_arrives_frozen(self):
        # a pickled graph keeps the CSR read-only contract in the worker
        graph = gen.barabasi_albert(128, attach=4, seed=2)
        got = parallel_map(_graph_probe, [graph] * 3, jobs=2)
        assert got == [(graph.num_edges, False)] * 3


class TestRunBatchParallel:
    def test_rows_bit_identical_jobs_1_vs_4(self):
        serial = run_batch(JOBS, scale="tiny", parallel_jobs=1)
        parallel = run_batch(JOBS, scale="tiny", parallel_jobs=4)
        assert serial == parallel

    def test_unknown_dataset_raises_before_pool(self):
        with pytest.raises(KeyError, match="facebook"):
            run_batch([BatchJob("facebook")], scale="tiny", parallel_jobs=2)

    def test_spawn_start_method_matches(self):
        # spawn-safe payloads: no reliance on fork-inherited globals
        from repro.harness.parallel import run_batch_parallel

        jobs = JOBS[:2]
        serial = run_batch(jobs, scale="tiny", parallel_jobs=1)
        spawned = run_batch_parallel(
            jobs,
            context=RunContext(device=RADEON_HD_7950),
            scale="tiny",
            jobs=2,
            start_method="spawn",
        )
        assert serial == spawned

    def test_trace_merge_matches_serial(self):
        # the merged worker streams must read like one serial traced run:
        # same events in job order, same per-phase kernel aggregates
        ctx_serial = RunContext(device=RADEON_HD_7950)
        reg_serial = MetricsRegistry()
        ring_serial = ctx_serial.enable_tracing(registry=reg_serial)
        serial = run_batch(JOBS, scale="tiny", context=ctx_serial, parallel_jobs=1)

        ctx_par = RunContext(device=RADEON_HD_7950)
        reg_par = MetricsRegistry()
        ring_par = ctx_par.enable_tracing(registry=reg_par)
        parallel = run_batch(JOBS, scale="tiny", context=ctx_par, parallel_jobs=3)

        assert serial == parallel
        assert len(ring_par.events) == len(ring_serial.events)
        # simulator-clock durations and payloads are deterministic; the
        # serial context's clock accumulates across cells while each
        # worker starts at zero, so absolute ts (and wall timings) differ
        for got, want in zip(ring_par.events, ring_serial.events, strict=True):
            assert (got.name, got.cat, got.ph, got.domain) == (
                want.name,
                want.cat,
                want.ph,
                want.domain,
            )
            if got.domain == "cycles":
                assert (got.dur, got.args) == (want.dur, want.args)
        for name, want in reg_serial.phases.items():
            got = reg_par.phases[name]
            assert got.kernels == want.kernels
            assert got.kernel_cycles == want.kernel_cycles
            assert got.work_items == want.work_items

    def test_registry_merge_folds_phases(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.phase("color").kernels = 3
        a.phase("color").kernel_cycles = 100.0
        b.phase("color").kernels = 2
        b.phase("color").kernel_cycles = 50.0
        b.phase("steal").steal_attempts = 4
        a.merge(b)
        assert a.phase("color").kernels == 5
        assert a.phase("color").kernel_cycles == 150.0
        assert a.phase("steal").steal_attempts == 4


class TestRunBatchRecording:
    def test_store_rows_bit_identical_jobs_1_vs_4(self, tmp_path):
        # four workers upsert into one WAL database; the content-keyed
        # rows must equal a serial run's, byte for byte
        from repro.store import Recorder

        with Recorder(
            str(tmp_path / "serial.sqlite"), git_rev="t", scale="tiny"
        ) as rec:
            serial_rows = run_batch(JOBS, scale="tiny", parallel_jobs=1, recorder=rec)
            serial = rec.store.canonical_rows()
        with Recorder(
            str(tmp_path / "par.sqlite"), git_rev="t", scale="tiny"
        ) as rec:
            par_rows = run_batch(JOBS, scale="tiny", parallel_jobs=4, recorder=rec)
            parallel = rec.store.canonical_rows()
        assert serial_rows == par_rows
        assert len(serial) == len(JOBS)
        assert serial == parallel

    def test_recorded_rows_keep_wall_time_out_of_batch_rows(self, tmp_path):
        # wall clocks land in the store only; batch rows stay volatile-free
        from repro.store import Recorder

        with Recorder(
            str(tmp_path / "runs.sqlite"), git_rev="t", scale="tiny"
        ) as rec:
            rows = run_batch(JOBS[:2], scale="tiny", recorder=rec)
            stored = rec.store.runs()
        assert all("wall_ms" not in row for row in rows)
        assert all(r["wall_ms"] is not None and r["wall_ms"] >= 0 for r in stored)

    def test_batch_cell_and_run_gpu_coloring_record_one_row(self, tmp_path):
        # the batch cell records through run_gpu_coloring, so both entry
        # points must land the same cell on the same content key
        from repro.harness.runner import run_gpu_coloring
        from repro.harness.suite import build
        from repro.store import Recorder, run_key

        job = BatchJob("powerlaw", algorithm="jp", schedule="stealing", seed=3)
        with Recorder(
            str(tmp_path / "runs.sqlite"), git_rev="t", scale="tiny"
        ) as rec:
            run_batch([job], scale="tiny", recorder=rec)
            (batch_row,) = rec.store.runs()
            canonical = rec.store.canonical_rows()
            executor = RunContext().executor(mapping="thread", schedule="stealing")
            run_gpu_coloring(
                build("powerlaw", "tiny"),
                "jp",
                executor,
                seed=3,
                recorder=rec,
                dataset="powerlaw",
                scale="tiny",
            )
            (row,) = rec.store.runs()
            assert rec.store.canonical_rows() == canonical
        assert run_key(row) == run_key(batch_row)
        assert row["runs_count"] == 2

