"""Unit tests for run-level execution counters."""

import numpy as np
import pytest

from repro.gpusim.counters import ExecutionCounters
from repro.gpusim.device import RADEON_HD_7950


class TestObserveKernel:
    def test_accumulation(self):
        c = ExecutionCounters()
        c.observe_kernel(
            cycles=100.0,
            launch_cycles=10.0,
            bandwidth_bound=False,
            traffic_elements=50.0,
            work_items=20,
            simd_efficiency=0.5,
        )
        c.observe_kernel(
            cycles=200.0,
            launch_cycles=10.0,
            bandwidth_bound=True,
            traffic_elements=100.0,
            work_items=30,
            simd_efficiency=1.0,
        )
        assert c.kernels_launched == 2
        assert c.total_cycles == 300.0
        assert c.launch_cycles == 20.0
        assert c.bandwidth_bound_kernels == 1
        assert c.traffic_elements == 150.0
        assert c.work_items == 50

    def test_launch_fraction(self):
        c = ExecutionCounters()
        c.observe_kernel(
            cycles=100.0,
            launch_cycles=25.0,
            bandwidth_bound=False,
            traffic_elements=0,
            work_items=1,
        )
        assert c.launch_overhead_fraction == pytest.approx(0.25)

    def test_launch_fraction_empty(self):
        assert ExecutionCounters().launch_overhead_fraction == 0.0

    def test_weighted_simd_efficiency(self):
        c = ExecutionCounters()
        c.observe_kernel(
            cycles=1, launch_cycles=0, bandwidth_bound=False,
            traffic_elements=0, work_items=10, simd_efficiency=1.0,
        )
        c.observe_kernel(
            cycles=1, launch_cycles=0, bandwidth_bound=False,
            traffic_elements=0, work_items=30, simd_efficiency=0.2,
        )
        assert c.mean_simd_efficiency == pytest.approx((10 * 1.0 + 30 * 0.2) / 40)

    def test_efficiency_default_when_unobserved(self):
        assert ExecutionCounters().mean_simd_efficiency == 1.0


class TestObserveStealing:
    def test_accumulation_and_rate(self):
        c = ExecutionCounters()
        c.observe_stealing(attempts=10, succeeded=7, migrated=20)
        c.observe_stealing(attempts=5, succeeded=3, migrated=4)
        assert c.steal_attempts == 15
        assert c.steals_succeeded == 10
        assert c.chunks_migrated == 24
        assert c.steal_success_rate == pytest.approx(10 / 15)

    def test_rate_without_attempts(self):
        assert ExecutionCounters().steal_success_rate == 0.0


class TestDerived:
    def test_achieved_bandwidth(self):
        c = ExecutionCounters()
        # 925k cycles = 1 ms at 925 MHz; 2.5e8 elements × 4 B = 1 GB → 1000 GB/s
        c.observe_kernel(
            cycles=925_000.0,
            launch_cycles=0,
            bandwidth_bound=True,
            traffic_elements=2.5e8,
            work_items=1,
        )
        assert c.achieved_bandwidth_gbps(RADEON_HD_7950) == pytest.approx(
            1000.0, rel=1e-3
        )

    def test_reset(self):
        c = ExecutionCounters()
        c.observe_kernel(
            cycles=1, launch_cycles=1, bandwidth_bound=True,
            traffic_elements=1, work_items=1, simd_efficiency=0.4,
        )
        c.observe_stealing(attempts=1, succeeded=1, migrated=1)
        c.reset()
        assert c.kernels_launched == 0
        assert c.total_cycles == 0.0
        assert c.steal_attempts == 0
        assert c.mean_simd_efficiency == 1.0

    def test_as_row(self):
        row = ExecutionCounters().as_row()
        assert {"kernels", "launch_%", "simd_eff"} <= set(row)


class TestExecutorIntegration:
    def test_counters_populate_over_a_run(self):
        from repro.coloring.maxmin import maxmin_coloring
        from repro.engine.context import RunContext
        from repro.harness.suite import build

        g = build("powerlaw", "tiny")
        ex = RunContext().executor()
        r = maxmin_coloring(g, ex)
        assert ex.counters.kernels_launched == r.num_iterations
        assert ex.counters.total_cycles == pytest.approx(r.total_cycles)
        assert ex.counters.work_items >= g.num_vertices

    def test_stealing_counters_populate(self):
        from repro.coloring.maxmin import maxmin_coloring
        from repro.engine.context import RunContext
        from repro.harness.suite import build

        g = build("rmat", "small")
        ex = RunContext().executor(schedule="stealing", chunk_size=256)
        maxmin_coloring(g, ex, max_iterations=3, compact=False)
        # chunks were executed even if no steal succeeded
        assert ex.counters.kernels_launched == 3

    def test_reset_between_windows(self):
        from repro.coloring.maxmin import maxmin_coloring
        from repro.engine.context import RunContext
        from repro.harness.suite import build

        g = build("road", "tiny")
        ex = RunContext().executor()
        maxmin_coloring(g, ex)
        ex.counters.reset()
        r2 = maxmin_coloring(g, ex)
        assert ex.counters.kernels_launched == r2.num_iterations
