"""Unit tests for the cost model and GPU execution engine."""

import numpy as np
import pytest

from repro.coloring.kernels import (
    MAPPINGS,
    SCHEDULES,
    CostModel,
    ExecutionConfig,
    SweepLog,
)
from repro.engine.context import RunContext
from repro.gpusim.device import RADEON_HD_7950, RADEON_R9_290X, DeviceConfig
from repro.gpusim.memory import MemoryModel
from repro.loadbalance.workstealing import StealingConfig


@pytest.fixture
def costs():
    dev = RADEON_HD_7950
    return CostModel(dev, MemoryModel(dev))


class TestCostModel:
    def test_thread_cost_linear_in_degree(self, costs):
        c = costs.thread_vertex_cycles(np.array([0, 10, 20]))
        assert c[0] > 0  # fixed part
        assert (c[2] - c[1]) == pytest.approx(c[1] - c[0])  # linear

    def test_coop_cost_steps_in_wavefront_strides(self, costs):
        c = costs.coop_vertex_cycles(np.array([1, 64, 65, 128]))
        assert c[0] == c[1]  # both one stride
        assert c[2] == c[3]  # both two strides
        assert c[2] > c[1]

    def test_coop_beats_thread_on_high_degree(self, costs):
        d = np.array([1000])
        assert costs.coop_vertex_cycles(d)[0] < 0.1 * costs.thread_vertex_cycles(d)[0]

    def test_thread_beats_coop_on_tiny_degree(self, costs):
        # a degree-1 vertex wastes 63 lanes + reduction under coop
        d = np.array([1])
        assert costs.thread_vertex_cycles(d)[0] < costs.coop_vertex_cycles(d)[0]

    def test_traffic_scales_with_edges(self, costs):
        t1 = costs.traffic_elements(np.array([10, 10]))
        t2 = costs.traffic_elements(np.array([20, 20]))
        assert t2 > t1

    def test_coalescing_gap_drives_mapping_gap(self):
        dev = RADEON_HD_7950
        no_coal = CostModel(dev, MemoryModel(dev, coalescing_enabled=False))
        with_coal = CostModel(dev, MemoryModel(dev, coalescing_enabled=True))
        d = np.array([640])
        gap_off = no_coal.thread_vertex_cycles(d)[0] / no_coal.coop_vertex_cycles(d)[0]
        gap_on = with_coal.thread_vertex_cycles(d)[0] / with_coal.coop_vertex_cycles(d)[0]
        assert gap_on > gap_off  # coalescing widens coop's advantage


class TestExecutionConfigValidation:
    def test_defaults_valid(self):
        cfg = ExecutionConfig()
        assert cfg.mapping == "thread"
        assert cfg.schedule == "grid"

    def test_bad_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            ExecutionConfig(mapping="warp")

    def test_bad_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            ExecutionConfig(schedule="magic")

    def test_chunk_must_be_multiple_of_workgroup(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionConfig(workgroup_size=256, chunk_size=300)

    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="degree_threshold"):
            ExecutionConfig(degree_threshold=0)

    def test_workgroup_must_match_device(self):
        with pytest.raises(ValueError, match="wavefront"):
            RunContext().executor(ExecutionConfig(workgroup_size=96, chunk_size=96))

    def test_workgroup_exceeds_device_limit(self):
        with pytest.raises(ValueError, match="device limit"):
            RunContext().executor(ExecutionConfig(workgroup_size=512, chunk_size=512))


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("schedule", SCHEDULES)
class TestAllModes:
    def test_every_mode_times_work(self, mapping, schedule):
        ex = RunContext().executor(ExecutionConfig(mapping=mapping, schedule=schedule))
        rng = np.random.default_rng(0)
        deg = rng.integers(1, 300, size=2000)
        t = ex.time_iteration(deg)
        assert t.cycles > 0
        assert 0 < t.simd_efficiency <= 1.0

    def test_empty_active_set_is_free(self, mapping, schedule):
        ex = RunContext().executor(ExecutionConfig(mapping=mapping, schedule=schedule))
        t = ex.time_iteration(np.array([], dtype=int))
        assert t.cycles == 0.0
        assert t.simd_efficiency == 1.0

    def test_more_work_costs_more(self, mapping, schedule):
        ex = RunContext().executor(ExecutionConfig(mapping=mapping, schedule=schedule))
        rng = np.random.default_rng(1)
        small = rng.integers(1, 50, size=500)
        big = np.concatenate([small] * 8)
        assert ex.time_iteration(big).cycles > ex.time_iteration(small).cycles

    def test_rejects_negative_degrees(self, mapping, schedule):
        ex = RunContext().executor(ExecutionConfig(mapping=mapping, schedule=schedule))
        with pytest.raises(ValueError):
            ex.time_iteration(np.array([-1]))


class TestMappingShapes:
    def test_hybrid_beats_thread_on_skewed_degrees(self):
        rng = np.random.default_rng(2)
        deg = rng.integers(1, 16, size=10_000)
        deg[:20] = 8000  # hubs
        thread = RunContext().executor(ExecutionConfig(mapping="thread"))
        hybrid = RunContext().executor(ExecutionConfig(mapping="hybrid"))
        assert hybrid.time_iteration(deg).cycles < 0.7 * thread.time_iteration(deg).cycles

    def test_hybrid_equals_thread_when_threshold_above_max(self):
        deg = np.random.default_rng(3).integers(1, 40, size=3000)
        thread = RunContext().executor(ExecutionConfig(mapping="thread"))
        hybrid = RunContext().executor(ExecutionConfig(mapping="hybrid", degree_threshold=100))
        assert hybrid.time_iteration(deg).cycles == pytest.approx(
            thread.time_iteration(deg).cycles
        )

    def test_wavefront_mapping_flattens_divergence(self):
        rng = np.random.default_rng(4)
        deg = rng.integers(1, 16, size=5000)
        deg[0] = 10_000
        thread = RunContext().executor(ExecutionConfig(mapping="thread"))
        wavefront = RunContext().executor(ExecutionConfig(mapping="wavefront"))
        assert (
            wavefront.time_iteration(deg).cycles
            < thread.time_iteration(deg).cycles
        )

    def test_uniform_degrees_make_thread_optimal(self):
        deg = np.full(5000, 6)
        thread = RunContext().executor(ExecutionConfig(mapping="thread"))
        wavefront = RunContext().executor(ExecutionConfig(mapping="wavefront"))
        assert thread.time_iteration(deg).cycles < wavefront.time_iteration(deg).cycles

    def test_sort_by_degree_never_hurts_total_divergence(self):
        rng = np.random.default_rng(5)
        deg = rng.pareto(1.2, size=4000).astype(int) + 1
        plain = RunContext().executor(ExecutionConfig())
        srt = RunContext().executor(ExecutionConfig(sort_by_degree=True))
        assert srt.time_iteration(deg).simd_efficiency >= plain.time_iteration(deg).simd_efficiency


class TestScheduleShapes:
    def test_stealing_beats_static_on_skewed_chunks(self):
        rng = np.random.default_rng(6)
        deg = rng.pareto(1.0, size=20_000).astype(int) + 1
        static = RunContext().executor(ExecutionConfig(schedule="static"))
        steal = RunContext().executor(ExecutionConfig(schedule="stealing"))
        assert steal.time_iteration(deg).cycles < static.time_iteration(deg).cycles

    def test_stealing_stats_exposed(self):
        deg = np.random.default_rng(7).integers(1, 200, size=8000)
        ex = RunContext().executor(ExecutionConfig(schedule="stealing"))
        t = ex.time_iteration(deg)
        assert t.stealing is not None
        assert t.stealing.chunks_executed.sum() > 0

    def test_custom_stealing_config_worker_count_corrected(self):
        cfg = ExecutionConfig(
            schedule="stealing",
            stealing=StealingConfig(num_workers=3, steal_cycles=10.0),
        )
        ex = RunContext().executor(cfg)
        t = ex.time_iteration(np.full(10_000, 8))
        # worker count silently normalized to the device's CU count
        assert t.stealing.busy_cycles.size == RADEON_HD_7950.num_cus

    def test_grid_launch_overhead_charged_once(self):
        ex = RunContext().executor(ExecutionConfig())
        t = ex.time_iteration(np.array([1]))
        assert t.cycles >= RADEON_HD_7950.launch_cycles

    def test_persistent_groups_per_cu_scales_workers(self):
        deg = np.random.default_rng(8).integers(1, 100, size=30_000)
        one = RunContext().executor(ExecutionConfig(schedule="dynamic", persistent_groups_per_cu=1))
        two = RunContext().executor(ExecutionConfig(schedule="dynamic", persistent_groups_per_cu=2))
        t1, t2 = one.time_iteration(deg), two.time_iteration(deg)
        assert t2.cu_busy.size == 2 * t1.cu_busy.size


class TestContextDevice:
    def test_sweep_times_on_the_context_device_and_memory(self):
        # 200k vertices of degree 40 on the R9 290X; the R9's compute
        # paired with the HD 7950's memory model would give 888,600
        ex = RunContext(device=RADEON_R9_290X).executor()
        t = ex.time_iteration(np.full(200_000, 40))
        assert t.cycles == pytest.approx(722_000, rel=1e-12)


class TestBandwidthRoofline:
    def test_roofline_binds_on_starved_device(self):
        dev = RADEON_HD_7950.with_overrides(dram_bandwidth_gbps=0.01)
        ex = RunContext(device=dev).executor(ExecutionConfig())
        rich = RunContext().executor(ExecutionConfig())
        deg = np.full(5000, 16)
        assert ex.time_iteration(deg).cycles > rich.time_iteration(deg).cycles

    def test_roofline_applies_to_persistent_schedules(self):
        dev = RADEON_HD_7950.with_overrides(dram_bandwidth_gbps=0.01)
        ex = RunContext(device=dev).executor(ExecutionConfig(schedule="stealing"))
        rich = RunContext().executor(ExecutionConfig(schedule="stealing"))
        deg = np.full(5000, 16)
        assert ex.time_iteration(deg).cycles > rich.time_iteration(deg).cycles


class TestTimingInputValidation:
    """Bad timing inputs fail at the entry point, in the log and in a direct call."""

    @pytest.fixture
    def ex(self):
        return RunContext().executor(ExecutionConfig())

    def test_fractional_degrees_rejected(self, ex):
        with pytest.raises(ValueError, match="integers"):
            ex.time_iteration(np.array([1.5, 2.7]))

    def test_fractional_degrees_rejected_by_the_log(self, ex):
        log = SweepLog(ex)
        with pytest.raises(ValueError, match="integers"):
            log.vertices("k", np.array([1.5, 2.7]), np.array([0, 1]))

    def test_integer_valued_float_degrees_accepted(self, ex):
        as_float = ex.time_iteration(np.array([1.0, 2.0]))
        as_int = RunContext().executor(ExecutionConfig()).time_iteration([1, 2])
        assert as_float.cycles == as_int.cycles

    def test_nan_traffic_rejected(self, ex):
        with pytest.raises(ValueError, match="traffic_elements"):
            ex.time_uniform(100, 4.0, traffic_elements=float("nan"))
        assert ex.counters.kernels_launched == 0

    def test_negative_traffic_rejected(self, ex):
        with pytest.raises(ValueError, match="traffic_elements"):
            ex.time_uniform(100, 4.0, traffic_elements=-1.0)

    def test_nan_cycles_per_item_rejected_at_entry(self, ex):
        with pytest.raises(ValueError, match="cycles_per_item"):
            ex.time_uniform(100, float("nan"))

    def test_bad_uniform_kernel_rejected_by_the_log(self, ex):
        log = SweepLog(ex)
        with pytest.raises(ValueError, match="cycles_per_item"):
            log.uniform("k", 10, float("inf"))
        with pytest.raises(ValueError, match="traffic_elements"):
            log.uniform("k", 10, 1.0, traffic_elements=float("nan"))
