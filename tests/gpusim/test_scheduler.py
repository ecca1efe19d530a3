"""Unit tests for greedy dispatch and workgroup scheduling."""

import numpy as np
import pytest

from repro.gpusim.device import SMALL_TEST_DEVICE, DeviceConfig
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.memory import MemoryModel
from repro.gpusim.scheduler import (
    dispatch,
    dispatch_tasks,
    greedy_schedule,
    workgroup_costs,
)


class TestGreedySchedule:
    def test_hand_case(self):
        # tasks [3, 1, 2, 2] onto 2 pipes:
        # t0: p0←3, p1←1; t=1: p1←2; t=3: p0 free at 3, p1 free at 3 → p0←2
        assignment, busy = greedy_schedule(np.array([3.0, 1.0, 2.0, 2.0]), 2)
        assert assignment.tolist() == [0, 1, 1, 0]
        assert busy.tolist() == [5.0, 3.0]

    def test_single_pipe_serializes(self):
        _, busy = greedy_schedule(np.array([1.0, 2.0, 3.0]), 1)
        assert busy.tolist() == [6.0]

    def test_more_pipes_than_tasks(self):
        assignment, busy = greedy_schedule(np.array([4.0, 2.0]), 8)
        assert busy.max() == 4.0
        assert (busy > 0).sum() == 2

    def test_empty(self):
        assignment, busy = greedy_schedule(np.array([]), 3)
        assert assignment.size == 0
        assert busy.tolist() == [0.0, 0.0, 0.0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            greedy_schedule(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            greedy_schedule(np.array([-1.0]), 2)

    def test_deterministic_tie_breaking(self):
        a1, _ = greedy_schedule(np.ones(10), 3)
        a2, _ = greedy_schedule(np.ones(10), 3)
        assert np.array_equal(a1, a2)


class TestWorkgroupCosts:
    def test_group_fits_pipes_takes_max(self):
        wf = np.array([1.0, 5.0, 2.0, 2.0, 3.0, 1.0, 1.0, 1.0])
        wg = workgroup_costs(wf, wf_per_group=4, simd_per_cu=4)
        assert wg.tolist() == [5.0, 3.0]

    def test_partial_last_group(self):
        wg = workgroup_costs(np.array([2.0, 4.0, 7.0]), 2, 4)
        assert wg.tolist() == [4.0, 7.0]

    def test_oversubscribed_group_packs_greedily(self):
        # 4 wavefronts on 2 pipes, greedy in order:
        # p0←3 ; p1←1 ; p1←2 (free at 1) ; p1←1 (free at 3? p0 free 3, p1 free 3 → p0)
        wf = np.array([3.0, 1.0, 2.0, 1.0])
        wg = workgroup_costs(wf, wf_per_group=4, simd_per_cu=2)
        assert wg.tolist() == [4.0]

    def test_oversubscribed_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        wf = rng.uniform(1, 10, size=64)
        wg = workgroup_costs(wf, 8, 4)
        # reference: per-group greedy loop
        for g in range(8):
            pipes = np.zeros(4)
            for c in wf[g * 8 : (g + 1) * 8]:
                pipes[np.argmin(pipes)] += c
            assert wg[g] == pytest.approx(pipes.max())

    def test_empty(self):
        assert workgroup_costs(np.array([]), 4, 4).size == 0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            workgroup_costs(np.array([1.0]), 0, 4)


class TestDispatch:
    def test_uniform_kernel_on_tiny_device(self):
        # 16 items, wavefront 4, workgroup 8 → 4 wavefronts, 2 workgroups.
        # Each wavefront costs 2; wg cost = 2 (1 pipe/CU → greedy packs
        # the 2 wavefronts serially → wg = 4); 2 CUs → makespan 4.
        spec = KernelSpec("k", np.full(16, 2.0), workgroup_size=8)
        res = dispatch(spec, SMALL_TEST_DEVICE)
        assert res.compute_cycles == pytest.approx(4.0)
        assert res.launch_cycles == SMALL_TEST_DEVICE.launch_cycles
        assert res.total_cycles == pytest.approx(4.0 + res.launch_cycles)

    def test_divergence_reported(self):
        items = np.ones(16)
        items[0] = 100.0
        spec = KernelSpec("k", items, workgroup_size=8)
        res = dispatch(spec, SMALL_TEST_DEVICE)
        assert res.divergence.simd_efficiency < 0.5
        assert res.load_imbalance > 1.0

    def test_workgroup_size_must_align(self):
        spec = KernelSpec("k", np.ones(10), workgroup_size=6)
        with pytest.raises(ValueError, match="multiple"):
            dispatch(spec, SMALL_TEST_DEVICE)

    def test_bandwidth_bound_kernel(self):
        dev = DeviceConfig(
            num_cus=2,
            simd_per_cu=1,
            wavefront_size=4,
            max_workgroup_size=8,
            clock_mhz=1000.0,
            dram_bandwidth_gbps=0.001,  # starve bandwidth
        )
        spec = KernelSpec(
            "k", np.ones(8), workgroup_size=4, traffic_elements=1e6
        )
        res = dispatch(spec, dev)
        assert res.is_bandwidth_bound
        assert res.total_cycles == pytest.approx(
            res.launch_cycles + res.bandwidth_cycles
        )

    def test_empty_kernel(self):
        spec = KernelSpec("k", np.array([]))
        res = dispatch(spec, SMALL_TEST_DEVICE)
        assert res.compute_cycles == 0.0
        assert res.cu_occupancy == 1.0

    def test_empty_cu_busy_no_nan(self):
        # Regression: occupancy/imbalance over an empty cu_busy array
        # used to propagate NaN (np.mean([]) warning) instead of the
        # neutral 1.0.
        from repro.gpusim.kernel import KernelResult

        res = KernelResult(
            name="empty",
            device=SMALL_TEST_DEVICE,
            compute_cycles=10.0,
            bandwidth_cycles=0.0,
            launch_cycles=0.0,
            workgroup_cycles=np.array([]),
            cu_busy=np.array([]),
        )
        with np.errstate(all="raise"):
            assert res.cu_occupancy == 1.0
            assert res.load_imbalance == 1.0

    def test_as_row(self):
        spec = KernelSpec("mykernel", np.ones(8), workgroup_size=4)
        row = dispatch(spec, SMALL_TEST_DEVICE).as_row()
        assert row["kernel"] == "mykernel"
        assert row["time_ms"] > 0


class TestDispatchTasks:
    def test_tasks_spread_over_cus(self):
        res = dispatch_tasks("coop", np.full(4, 5.0), SMALL_TEST_DEVICE)
        # 4 tasks, 1/group (simd_per_cu=1) → greedy over 2 CUs → 2 each
        assert res.compute_cycles == pytest.approx(10.0)

    def test_custom_group_size(self):
        res = dispatch_tasks(
            "coop", np.array([5.0, 1.0]), SMALL_TEST_DEVICE, tasks_per_group=2
        )
        # one group of 2 tasks on 1 pipe → serial 6
        assert res.compute_cycles == pytest.approx(6.0)


class TestKernelSpecValidation:
    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            KernelSpec("k", np.array([-1.0]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            KernelSpec("k", np.ones((2, 2)))

    def test_rejects_negative_traffic(self):
        with pytest.raises(ValueError):
            KernelSpec("k", np.ones(4), traffic_elements=-1)

    def test_num_workgroups(self):
        spec = KernelSpec("k", np.ones(10), workgroup_size=4)
        assert spec.num_workgroups() == 3
        assert spec.num_items == 10
