"""Tests for the parallel harness: pools, shared graphs, artifact cache.

The contract under test is *determinism*: a parallel run may change
wall-clock, never results.  Rows must be bit-identical at any worker
count, shared-memory segments must be gone after the store closes even
when a worker blew up mid-run, merged traces must read like a serial
run, and the artifact cache must only ever save time (corrupt file ⇒
miss, never a wrong graph).
"""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.engine.context import RunContext
from repro.engine.plan import PlanCache
from repro.gpusim.device import RADEON_HD_7950
from repro.graphs import generators as gen
from repro.harness.artifacts import (
    ArtifactCache,
    graph_key,
    load_plan_cache,
    save_plan_cache,
)
from repro.harness.batch import BatchJob, run_batch
from repro.harness.parallel import (
    SharedGraphStore,
    _detach_all,
    attach_graph,
    derive_seed,
    parallel_map,
)
from repro.harness.sweeps import sweep
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


def _edge_count(ref) -> int:
    """Worker-side probe: attach the shared graph, count its edges."""
    graph = attach_graph(ref)
    return int(graph.indptr[-1])


def _measure(chunk_size: int, scale: float) -> dict[str, float]:
    return {"value": chunk_size * scale}


def _shm_paths(store: SharedGraphStore) -> list[Path]:
    return [Path("/dev/shm") / ref.shm_name for ref in store._refs.values()]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, 7) == derive_seed(0, 7)

    def test_distinct_per_index_and_base(self):
        seeds = {derive_seed(b, i) for b in range(3) for i in range(100)}
        assert len(seeds) == 300

    def test_non_negative_int64(self):
        for i in range(50):
            s = derive_seed(123, i)
            assert 0 <= s < 2**63


class TestParallelMap:
    def test_inline_when_single_job(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_ordered_results_across_workers(self):
        items = list(range(40))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="on purpose"):
            parallel_map(_boom, [1, 2, 3], jobs=2)


@pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="POSIX shared memory not visible"
)
class TestSharedGraphStore:
    def test_publish_attach_roundtrip(self):
        graph = gen.rmat(7, edge_factor=8, seed=1)
        with SharedGraphStore() as store:
            ref = store.publish("g", graph)
            attached = attach_graph(ref)
            assert np.array_equal(attached.indptr, graph.indptr)
            assert np.array_equal(attached.indices, graph.indices)
            assert attached.num_vertices == graph.num_vertices
            assert attached.num_edges == graph.num_edges
            _detach_all()

    def test_publish_is_idempotent_per_key(self):
        graph = gen.grid_2d(8, 8)
        with SharedGraphStore() as store:
            assert store.publish("g", graph) is store.publish("g", graph)
            assert len(store._segments) == 1

    def test_workers_attach_zero_copy(self):
        graph = gen.barabasi_albert(128, attach=4, seed=2)
        with SharedGraphStore() as store:
            ref = store.publish("g", graph)
            counts = parallel_map(_edge_count, [ref] * 6, jobs=3)
        assert counts == [2 * graph.num_edges] * 6

    def test_close_unlinks_segments(self):
        store = SharedGraphStore()
        store.publish("g", gen.grid_2d(6, 6))
        paths = _shm_paths(store)
        assert all(p.exists() for p in paths)
        store.close()
        assert not any(p.exists() for p in paths)
        store.close()  # idempotent

    def test_concurrent_attach_restores_tracker_register(self):
        # Regression: unsynchronized attachers could capture each
        # other's no-op patch as the "original" resource_tracker.register
        # and leave tracker registration disabled process-wide. Attaches
        # now serialize on a module lock; after any storm of concurrent
        # attaches the real register function must be back in place.
        import threading

        from multiprocessing import resource_tracker

        from repro.harness import parallel as par

        real_register = resource_tracker.register
        graphs = {f"g{i}": gen.grid_2d(6, 6) for i in range(4)}
        with SharedGraphStore() as store:
            refs = [store.publish(k, g) for k, g in graphs.items()]
            errors = []

            def attach_many():
                try:
                    for ref in refs:
                        attach_graph(ref)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=attach_many) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            _detach_all()
        assert not errors
        assert resource_tracker.register is real_register
        if not par._HAS_TRACK_KWARG:
            # the patch path must never leave a lambda installed
            assert resource_tracker.register.__name__ == real_register.__name__

    def test_cleanup_after_worker_crash(self):
        # a crashing worker must not leak the parent-owned segments —
        # the context manager unlinks them on the way out of the raise
        paths = []
        with pytest.raises(RuntimeError, match="on purpose"):
            with SharedGraphStore() as store:
                ref = store.publish("g", gen.grid_2d(8, 8))
                paths = _shm_paths(store)
                parallel_map(_boom, [ref] * 4, jobs=2)
        assert paths and not any(p.exists() for p in paths)


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


class TestSweepJobs:
    def test_parallel_sweep_matches_serial(self):
        grid = {"chunk_size": [256, 512, 1024], "scale": [0.5, 2.0]}
        assert sweep(_measure, grid, jobs=2) == sweep(_measure, grid)


class TestArtifactCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = graph_key("rmat", "tiny")
        assert cache.load_graph(key) is None
        graph = gen.rmat(7, edge_factor=8, seed=1)
        cache.store_graph(key, graph)
        loaded = cache.load_graph(key)
        assert loaded is not None
        assert np.array_equal(loaded.indptr, graph.indptr)
        assert np.array_equal(loaded.indices, graph.indices)
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = graph_key("grid2d", "tiny")
        cache.store_graph(key, gen.grid_2d(6, 6))
        cache._graph_path(key).write_bytes(b"not an npz at all")
        assert cache.load_graph(key) is None

    def test_tampered_arrays_fail_digest(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = graph_key("grid2d", "tiny")
        graph = gen.grid_2d(6, 6)
        cache.store_graph(key, graph)
        # re-save with a stale digest: arrays change, digest doesn't
        path = cache._graph_path(key)
        with np.load(path) as npz:
            digest = str(npz["digest"])
        indices = graph.indices.copy()
        indices[:2] = indices[1::-1]
        with path.open("wb") as fh:
            np.savez_compressed(
                fh,
                indptr=graph.indptr.astype(np.int64),
                indices=indices.astype(np.int32),
                digest=digest,
            )
        assert cache.load_graph(key) is None

    def test_key_depends_on_recipe(self):
        assert graph_key("rmat", "tiny") != graph_key("rmat", "small")
        assert graph_key("rmat", "tiny") != graph_key("road", "tiny")
        assert graph_key("rmat", "tiny", version=1) != graph_key(
            "rmat", "tiny", version=2
        )

    def test_plan_snapshot_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        plans = PlanCache()
        plans.get_or_build("k1", lambda: _fake_plan("a"))
        plans.get_or_build("k2", lambda: _fake_plan("b"))
        assert save_plan_cache(plans, cache, tag="t") == 2
        warmed = PlanCache()
        assert load_plan_cache(warmed, cache, tag="t") == 2
        assert "k1" in warmed and "k2" in warmed
        # a warm entry is a hit, not a rebuild
        assert warmed.get_or_build("k1", _unexpected_build).name == "a"
        # existing entries are never clobbered by a snapshot
        assert load_plan_cache(warmed, cache, tag="t") == 0

    def test_missing_plan_snapshot_is_empty(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load_plans("nope") == []

    def test_corrupt_plan_snapshot_is_empty(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        plans = PlanCache()
        plans.get_or_build("k", lambda: _fake_plan("a"))
        save_plan_cache(plans, cache, tag="t")
        from repro.harness.artifacts import _tag_key

        cache._plan_path(_tag_key("t")).write_bytes(b"\x80garbage")
        assert load_plan_cache(PlanCache(), cache, tag="t") == 0

    def test_suite_build_uses_disk_cache(self, tmp_path, monkeypatch):
        from repro.harness import suite

        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path))
        monkeypatch.setattr(suite, "_CACHE", {})
        first = suite.build("grid2d", "tiny")
        assert _cache_dir_has_graph(tmp_path, "grid2d", "tiny")
        monkeypatch.setattr(suite, "_CACHE", {})  # force the disk path
        second = suite.build("grid2d", "tiny")
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)


def _cache_dir_has_graph(root, name, scale) -> bool:
    return (Path(root) / "graphs" / f"{graph_key(name, scale)}.npz").exists()


def _unexpected_build():
    raise AssertionError("warm plan should not be rebuilt")


class _FakePlan:
    """Minimal picklable stand-in for an ExecutionPlan."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, _FakePlan) and other.name == self.name

    def __reduce__(self):
        return (_FakePlan, (self.name,))


def _fake_plan(name: str) -> "_FakePlan":
    assert pickle.loads(pickle.dumps(_FakePlan(name))) == _FakePlan(name)
    return _FakePlan(name)
