"""RunContext wiring: defaults, executor construction, device ownership,
seed resolution, run-level counter aggregation, and seed-less calls."""

import numpy as np
import pytest

from repro.coloring.kernels import CostModel, ExecutionConfig
from repro.engine.backend import NumpyBackend
from repro.engine.context import RunContext, resolve_context
from repro.graphs.generators import rmat
from repro.gpusim.device import RADEON_HD_7950, RADEON_R9_290X, DeviceConfig
from repro.gpusim.memory import MemoryModel
from repro.harness.runner import run_gpu_coloring


class TestDefaults:
    def test_memory_built_from_device(self):
        ctx = RunContext()
        assert ctx.device is RADEON_HD_7950
        assert ctx.memory is not None
        assert ctx.memory.device is ctx.device

    def test_backend_name_resolved_to_instance(self):
        ctx = RunContext(backend="numpy")
        assert isinstance(ctx.backend, NumpyBackend)

    def test_backend_instance_passes_through(self):
        be = object()  # any substitute, e.g. a timing or counting fake
        assert RunContext(backend=be).backend is be

    def test_rng_deterministic(self):
        a = RunContext(seed=7).rng().integers(0, 1000, size=5)
        b = RunContext(seed=7).rng().integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_resolve_seed(self):
        ctx = RunContext(seed=5)
        assert ctx.resolve_seed(None) == 5
        assert ctx.resolve_seed(9) == 9
        assert ctx.resolve_seed(0) == 0


class TestExecutorFactory:
    def test_executor_binds_context(self):
        ctx = RunContext()
        ex = ctx.executor(mapping="hybrid")
        assert ex.context is ctx
        assert ex.plans is ctx.plans
        assert ex.config.mapping == "hybrid"

    def test_executor_with_config_object(self):
        ctx = RunContext()
        cfg = ExecutionConfig(schedule="dynamic")
        assert ctx.executor(cfg).config is cfg

    def test_executor_rejects_both_forms(self):
        ctx = RunContext()
        with pytest.raises(ValueError, match="not both"):
            ctx.executor(ExecutionConfig(), mapping="hybrid")


class TestResolveContext:
    def test_explicit_context_wins(self):
        ctx = RunContext(seed=3)
        ex = RunContext(seed=9).executor()
        assert resolve_context(ctx, ex) is ctx

    def test_executor_context_used(self):
        ex = RunContext(seed=9).executor()
        assert resolve_context(None, ex) is ex.context

    def test_fresh_default_otherwise(self):
        ctx = resolve_context(None, None)
        assert isinstance(ctx, RunContext)
        assert ctx.seed == 0


class TestCounterAggregation:
    def test_context_counters_aggregate_across_executors(self):
        ctx = RunContext()
        deg = np.arange(1, 40, dtype=np.int64)
        ex1 = ctx.executor()
        ex2 = ctx.executor(mapping="wavefront")
        ex1.time_iteration(deg)
        ex2.time_iteration(deg)
        assert ex1.counters.kernels_launched == 1
        assert ex2.counters.kernels_launched == 1
        assert ctx.counters.kernels_launched == 2

    def test_trace_sink_records_kernels(self):
        ctx = RunContext()
        ring = ctx.enable_tracing()
        ex = ctx.executor()
        ex.time_iteration(np.arange(1, 10), name="probe")
        (event,) = [e for e in ring.events if e.cat == "kernel"]
        assert event.name == "probe"
        assert event.dur > 0
        assert event.args["work_items"] == 9


class TestAlgorithmIntegration:
    def test_context_seed_flows_to_algorithm(self):
        g = rmat(6, seed=2)
        ctx = RunContext(seed=11)
        via_ctx = run_gpu_coloring(g, "maxmin", seed=None, context=ctx)
        explicit = run_gpu_coloring(g, "maxmin", seed=11)
        np.testing.assert_array_equal(via_ctx.colors, explicit.colors)

    def test_batch_style_sharing_warm_plans(self):
        g = rmat(6, seed=5)
        ctx = RunContext()
        run_gpu_coloring(g, "maxmin", ctx.executor(), seed=0)
        assert ctx.plans.misses > 0
        before = ctx.plans.misses
        run_gpu_coloring(g, "maxmin", ctx.executor(), seed=0)
        assert ctx.plans.misses == before  # identical run = all warm
        assert ctx.plans.hits >= before


class TestDeviceOwnership:
    """The context owns the device and memory model its executors time on."""

    def test_executor_takes_device_and_memory_from_context(self):
        dev = DeviceConfig(num_cus=4)
        ctx = RunContext(device=dev)
        ex = ctx.executor(mapping="thread", schedule="dynamic")
        assert ex.device is dev
        assert ex.memory is ctx.memory
        assert ex.costs == CostModel(dev, ctx.memory)

    def test_custom_memory_model_reaches_the_executor(self):
        # off the DRAM roofline, so the per-access charge shows
        dev = RADEON_HD_7950.with_overrides(dram_bandwidth_gbps=1e5)
        memory = MemoryModel(dev, coalescing_enabled=False)
        ex = RunContext(device=dev, memory=memory).executor(mapping="hybrid")
        assert ex.memory is memory
        deg = np.full(200, 300)
        plain = RunContext(device=dev).executor(mapping="hybrid").time_iteration(deg)
        assert ex.time_iteration(deg).cycles > plain.cycles

    def test_memory_model_for_another_device_rejected(self):
        with pytest.raises(ValueError, match="different device"):
            RunContext(device=RADEON_R9_290X, memory=MemoryModel(RADEON_HD_7950))


class TestLegacyShims:
    """Seed-less algorithm calls keep working unchanged."""

    def test_seed_zero_default_preserved(self):
        g = rmat(6, seed=8)
        old_style = run_gpu_coloring(g, "maxmin")  # implicit seed=0
        new_style = run_gpu_coloring(g, "maxmin", context=RunContext(seed=0))
        np.testing.assert_array_equal(old_style.colors, new_style.colors)
