"""Execution plans: one-pass derivation, fidelity, and no carried state.

``build_plans`` derives a whole timing window at once. The element-wise
cost laws run over the concatenation, the float sums whose order
matters on each array's own slice, so every plan must be bit-identical
to the plan of its array alone, and the chunk sums to
``chunk_costs(t, chunk_ranges(t.size, k))``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.kernels import MAPPINGS, SCHEDULES, CostModel, ExecutionConfig
from repro.engine.context import RunContext
from repro.engine.plan import _chunk_sums, as_degrees, build_plan, build_plans
from repro.gpusim.device import RADEON_HD_7950, SMALL_TEST_DEVICE, DeviceConfig
from repro.gpusim.memory import MemoryModel
from repro.loadbalance.partition import chunk_costs, chunk_ranges

DEVICE = RADEON_HD_7950


class TestExecutorCaching:
    """The executor caches no plan: a used executor or context times
    exactly as a fresh one."""

    def test_graph_change_invalidates(self):
        ex = RunContext(device=DEVICE).executor()
        ex.time_iteration(np.array([1, 2, 3]))
        second = ex.time_iteration(np.array([1, 2, 4]))
        fresh = RunContext(device=DEVICE).executor().time_iteration(np.array([1, 2, 4]))
        assert repr(second.cycles) == repr(fresh.cycles)

    def test_chunk_size_change_invalidates(self):
        ctx = RunContext(device=DEVICE)
        deg = np.arange(1, 600, dtype=np.int64)
        ex1 = ctx.executor(mapping="thread", schedule="stealing", chunk_size=256)
        ex2 = ctx.executor(mapping="thread", schedule="stealing", chunk_size=512)
        assert (ex1.plan_for(deg).chunk_cycles.size, ex2.plan_for(deg).chunk_cycles.size) == (3, 2)
        ex1.time_iteration(deg)
        fresh = RunContext(device=DEVICE).executor(ex2.config)
        assert repr(ex2.time_iteration(deg).cycles) == repr(fresh.time_iteration(deg).cycles)

    def test_device_change_invalidates(self):
        small = DeviceConfig(num_cus=4)
        deg = np.arange(1, 100, dtype=np.int64)
        RunContext(device=DEVICE).executor().time_iteration(deg)
        other = RunContext(device=small).executor().time_iteration(deg)
        fresh = RunContext(device=small).executor().time_iteration(deg)
        assert repr(other.cycles) == repr(fresh.cycles)

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


# ---------------------------------------------------------------------------
# properties: the one-pass derivation is exact
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), max_size=300),
    st.integers(1, 9),
    st.booleans(),
)
def test_chunk_sums_match_chunk_costs(values, per_chunk, wide):
    # integer costs (int64 degrees) are summed as float64, like chunk_costs,
    # also where float64 rounds them
    costs = np.array(values)
    if wide:
        costs = (costs * 2**30).astype(np.int64) + 2**53 + 1
    got = _chunk_sums(costs, per_chunk)
    want = chunk_costs(costs, chunk_ranges(costs.size, per_chunk))
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_chunk_sums_edge_sizes():
    costs = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    for n in range(costs.size + 1):
        for per_chunk in (1, 2, 3, n or 1, n + 1):
            got = _chunk_sums(costs[:n], per_chunk)
            want = chunk_costs(costs[:n], chunk_ranges(n, per_chunk))
            assert got.tobytes() == want.tobytes(), (n, per_chunk)


def _plan_fields(plan) -> list[str]:
    """Every field of a plan: arrays by dtype, shape and bytes, floats by repr."""
    out = []
    for name in ("degrees", "item_cycles", "tasks", "chunk_cycles"):
        a = getattr(plan, name)
        out.append(repr(None) if a is None else repr((a.dtype.str, a.shape, a.tobytes())))
    for name in ("traffic_elements", "simd_efficiency", "kernel_suffix"):
        out.append(repr(getattr(plan, name)))
    return out


@st.composite
def degree_windows(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.sampled_from([0, 1, 3, 63, 64, 65, 257, 1000]))
        profile = draw(st.sampled_from(["zeros", "small", "hubs", "wide"]))
        if profile == "zeros":
            deg = np.zeros(size, dtype=np.int64)
        elif profile == "small":
            deg = rng.integers(0, 6, size=size)
        elif profile == "hubs":
            deg = rng.integers(0, 4, size=size)
            hubs = rng.random(size) < 0.05
            deg[hubs] = rng.integers(60, 5000, size=int(hubs.sum()))
        else:  # beyond int32
            deg = rng.integers(0, 2**40, size=size)
        arrays.append(as_degrees(deg))
    return arrays


@pytest.mark.parametrize("sort_by_degree", [False, True])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("mapping", MAPPINGS)
@settings(max_examples=25, deadline=None)
@given(window=degree_windows(), small=st.booleans(), threshold=st.sampled_from([1, 3, 64]))
def test_window_plans_equal_plans_of_each_array(
    mapping, schedule, sort_by_degree, window, small, threshold
):
    device, wg = (SMALL_TEST_DEVICE, 8) if small else (DEVICE, 256)
    config = ExecutionConfig(
        mapping=mapping,
        schedule=schedule,
        workgroup_size=wg,
        chunk_size=2 * wg,
        degree_threshold=threshold,
        sort_by_degree=sort_by_degree,
    )
    costs = CostModel(device, MemoryModel(device))
    together = build_plans(window, config, costs, device)
    alone = [build_plans([d], config, costs, device)[0] for d in window]
    assert len(together) == len(alone) == len(window)
    for a, b in zip(together, alone, strict=True):
        assert _plan_fields(a) == _plan_fields(b)
