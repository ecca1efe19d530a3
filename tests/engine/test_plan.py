"""Plan-cache behavior: hits, invalidation, LRU bound, and fidelity.

The timing invariant that matters most: a warm (cached) iteration must
return exactly the cycles a cold one does — the cache memoizes the
derivation, never the dispatch.
"""

import numpy as np
import pytest

from repro.coloring.kernels import CostModel, ExecutionConfig
from repro.engine.context import RunContext
from repro.engine.plan import (
    ExecutionPlan,
    PlanCache,
    build_plan,
    degrees_fingerprint,
)
from repro.gpusim.device import RADEON_HD_7950, DeviceConfig
from repro.gpusim.memory import MemoryModel

DEVICE = RADEON_HD_7950


def _build_count():
    calls = {"n": 0}

    def builder():
        calls["n"] += 1
        return ExecutionPlan(degrees=np.arange(3), traffic_elements=1.0)

    return calls, builder


class TestFingerprint:
    def test_same_content_same_fingerprint(self):
        a = np.array([3, 1, 2], dtype=np.int64)
        assert degrees_fingerprint(a) == degrees_fingerprint(a.copy())

    def test_content_change_changes_fingerprint(self):
        a = np.array([3, 1, 2], dtype=np.int64)
        b = np.array([3, 1, 4], dtype=np.int64)
        assert degrees_fingerprint(a) != degrees_fingerprint(b)

    def test_size_change_changes_fingerprint(self):
        assert degrees_fingerprint(np.array([1])) != degrees_fingerprint(
            np.array([1, 1])
        )


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache()
        calls, builder = _build_count()
        p1 = cache.get_or_build("k", builder)
        p2 = cache.get_or_build("k", builder)
        assert p1 is p2
        assert calls["n"] == 1
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_distinct_keys_build_separately(self):
        cache = PlanCache()
        calls, builder = _build_count()
        cache.get_or_build("a", builder)
        cache.get_or_build("b", builder)
        assert calls["n"] == 2

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        calls, builder = _build_count()
        cache.get_or_build("a", builder)
        cache.get_or_build("b", builder)
        cache.get_or_build("a", builder)  # refresh a
        cache.get_or_build("c", builder)  # evicts b (least recent)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_clear(self):
        cache = PlanCache()
        _, builder = _build_count()
        cache.get_or_build("k", builder)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestExecutorCaching:
    def test_repeated_degrees_hit_the_cache(self):
        ex = RunContext(device=DEVICE).executor(ExecutionConfig(mapping="hybrid"))
        deg = np.array([1, 2, 300, 4, 5], dtype=np.int64)
        t1 = ex.time_iteration(deg, name="a")
        t2 = ex.time_iteration(deg.copy(), name="b")
        assert ex.plans.hits == 1 and ex.plans.misses == 1
        assert t1.cycles == t2.cycles  # dispatch is deterministic

    def test_graph_change_invalidates(self):
        ex = RunContext(device=DEVICE).executor()
        ex.time_iteration(np.array([1, 2, 3]))
        ex.time_iteration(np.array([1, 2, 4]))
        assert ex.plans.misses == 2 and ex.plans.hits == 0

    def test_chunk_size_change_invalidates(self):
        ctx = RunContext(device=DEVICE)
        deg = np.arange(1, 600, dtype=np.int64)
        ex1 = ctx.executor(mapping="thread", schedule="stealing", chunk_size=256)
        ex2 = ctx.executor(mapping="thread", schedule="stealing", chunk_size=512)
        ex1.time_iteration(deg)
        ex2.time_iteration(deg)
        assert ctx.plans.misses == 2 and ctx.plans.hits == 0

    def test_device_change_invalidates(self):
        ctx = RunContext(device=DEVICE)
        other = RunContext(device=DeviceConfig(num_cus=4), plans=ctx.plans)
        deg = np.arange(1, 100, dtype=np.int64)
        ctx.executor().time_iteration(deg)
        other.executor().time_iteration(deg)
        assert ctx.plans.misses == 2

    def test_shared_context_shares_plans(self):
        ctx = RunContext(device=DEVICE)
        deg = np.arange(1, 50, dtype=np.int64)
        ctx.executor().time_iteration(deg)
        ctx.executor().time_iteration(deg)  # second executor, same config
        assert ctx.plans.hits == 1 and ctx.plans.misses == 1

    def test_warm_timing_identical_to_cold(self):
        deg = np.array([5, 1, 900, 33, 7, 2], dtype=np.int64)
        for cfg in (
            ExecutionConfig(),
            ExecutionConfig(mapping="wavefront"),
            ExecutionConfig(mapping="hybrid", sort_by_degree=True),
            ExecutionConfig(mapping="thread", schedule="stealing"),
        ):
            cold = RunContext(device=DEVICE).executor(cfg).time_iteration(deg)
            ex = RunContext(device=DEVICE).executor(cfg)
            ex.time_iteration(deg)
            warm = ex.time_iteration(deg)
            assert warm.cycles == cold.cycles
            assert warm.simd_efficiency == cold.simd_efficiency


class TestBuildPlan:
    def test_sorting_happens_inside_the_plan(self):
        cfg = ExecutionConfig(sort_by_degree=True)
        costs = CostModel(DEVICE, MemoryModel(DEVICE))
        plan = build_plan(np.array([1, 9, 4]), cfg, costs, DEVICE)
        assert plan.degrees.tolist() == [9, 4, 1]

    def test_artifact_family_matches_config(self):
        costs = CostModel(DEVICE, MemoryModel(DEVICE))
        deg = np.array([2, 200], dtype=np.int64)
        grid_thread = build_plan(deg, ExecutionConfig(), costs, DEVICE)
        assert grid_thread.item_cycles is not None
        assert grid_thread.chunk_cycles is None
        hybrid = build_plan(deg, ExecutionConfig(mapping="hybrid"), costs, DEVICE)
        assert hybrid.tasks is not None
        assert hybrid.kernel_suffix == "+coop"
        persistent = build_plan(
            deg, ExecutionConfig(schedule="dynamic"), costs, DEVICE
        )
        assert persistent.chunk_cycles is not None
