"""Equivalence of the vectorized scheduler against the reference heap.

The vectorized ``greedy_schedule`` must be *bit-identical* to the
original per-task heap loop — same pipe assignments and same float busy
totals (accumulation order matters) — across
every input structure its fast paths dispatch on: single pipe, short
task lists, all-equal ties, equal-cost runs, and fully irregular costs.
These property tests hammer exactly those structures, plus the input
validation the vectorized front door added.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.scheduler import (
    _greedy_schedule_reference,
    greedy_schedule,
    workgroup_costs,
)

# ---------------------------------------------------------------------------
# strategies: cost arrays shaped like the structures the fast paths target
# ---------------------------------------------------------------------------

_finite_cost = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_quantum = st.sampled_from(
    [0.0, 2.220446049250313e-16, 5e-324, 1.0, 2.0, 64.0, 100.0, 100.5, 512.0]
)


@st.composite
def cost_arrays(draw) -> np.ndarray:
    kind = draw(
        st.sampled_from(
            ["random", "quantized", "constant", "runs", "sorted", "zeros"]
        )
    )
    if kind == "random":
        vals = draw(st.lists(_finite_cost, min_size=0, max_size=120))
    elif kind == "quantized":
        # few distinct values → run-structured after sorting, tie-heavy raw
        vals = draw(st.lists(_quantum, min_size=0, max_size=300))
    elif kind == "constant":
        n = draw(st.integers(0, 300))
        vals = [draw(_quantum)] * n
    elif kind == "runs":
        # explicit (value, length) runs: exercises the run decomposition,
        # the merged scalar segments, and the heap<->avail transitions
        runs = draw(
            st.lists(
                st.tuples(_quantum, st.integers(1, 64)), min_size=0, max_size=8
            )
        )
        vals = [v for v, k in runs for _ in range(k)]
    elif kind == "sorted":
        vals = sorted(draw(st.lists(_quantum, min_size=0, max_size=300)), reverse=True)
    else:  # zeros: the pathological all-on-one-pipe case
        vals = [0.0] * draw(st.integers(0, 64))
    return np.asarray(vals, dtype=np.float64)


_pipes = st.integers(min_value=1, max_value=40)


# ---------------------------------------------------------------------------
# greedy_schedule ≡ reference heap
# ---------------------------------------------------------------------------


def _assert_schedules_match(costs: np.ndarray, pipes: int) -> None:
    a_vec, b_vec = greedy_schedule(costs, pipes)
    a_ref, b_ref = _greedy_schedule_reference(costs, pipes)
    assert np.array_equal(a_vec, a_ref), "pipe assignments diverge"
    # busy must match bit-for-bit: float accumulation order is part of
    # the contract (golden digests hash these values)
    assert np.array_equal(b_vec, b_ref), "busy totals diverge"


class TestGreedyScheduleEquivalence:
    @given(costs=cost_arrays(), pipes=_pipes)
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, costs, pipes):
        _assert_schedules_match(costs, pipes)

    @given(n=st.integers(1, 300), c=_quantum, pipes=_pipes)
    @settings(max_examples=100, deadline=None)
    def test_tie_heavy_all_equal(self, n, c, pipes):
        # the round-robin fast path (and, for c == 0, the argmin path)
        _assert_schedules_match(np.full(n, c), pipes)

    @given(
        data=st.lists(st.integers(1, 500), min_size=1, max_size=200),
        pipes=_pipes,
    )
    @settings(max_examples=100, deadline=None)
    def test_sorted_integer_cycles(self, data, pipes):
        # descending integer cycle counts: what sort-by-degree dispatch
        # actually produces (long equal-cost runs on skewed graphs)
        costs = np.sort(np.asarray(data, dtype=np.float64))[::-1].copy()
        _assert_schedules_match(costs, pipes)

    def test_epsilon_run_behind_large_avail_spread(self):
        # regression: a long run of machine-epsilon costs after a 1.0
        # task made the uncapped candidate-ladder bound ~1/eps rungs
        # (a petabyte-scale allocation); the R+1 cap keeps it exact and
        # tiny.  Denormal costs stress the same path via inf bounds.
        eps = np.finfo(np.float64).eps
        _assert_schedules_match(np.array([1.0] + [eps] * 31), 2)
        _assert_schedules_match(np.array([1.0] + [5e-324] * 31), 2)

    def test_long_runs_cross_run_min(self):
        # deterministic case pinning the vectorized-run path: runs well
        # above _RUN_MIN interleaved with short scalar segments
        costs = np.concatenate(
            [
                np.full(100, 512.0),
                np.array([3.0, 1.0, 7.0]),
                np.full(64, 100.0),
                np.zeros(20),
                np.full(50, 2.5),
            ]
        )
        for pipes in (1, 2, 3, 7, 28, 64):
            _assert_schedules_match(costs, pipes)


class TestGreedyScheduleValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            [np.nan],
            [np.inf],
            [-np.inf],
            [1.0, np.nan, 2.0],
            [512.0, np.inf],
        ],
    )
    def test_non_finite_costs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            greedy_schedule(np.asarray(bad), 4)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            greedy_schedule(np.array([1.0, -0.5]), 4)

    def test_bad_pipe_count_rejected(self):
        with pytest.raises(ValueError, match="num_pipes"):
            greedy_schedule(np.array([1.0]), 0)

    def test_empty_is_fine(self):
        a, b = greedy_schedule(np.array([]), 3)
        assert a.size == 0 and b.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# workgroup_costs ≡ scalar per-group greedy packing
# ---------------------------------------------------------------------------


def _workgroup_costs_reference(
    wf: np.ndarray, wf_per_group: int, simd_per_cu: int
) -> np.ndarray:
    """Scalar oracle: pack each group's wavefronts greedily, in order."""
    wf = np.asarray(wf, dtype=np.float64).ravel()
    out = []
    for g0 in range(0, wf.size, wf_per_group):
        group = wf[g0 : g0 + wf_per_group]
        pipes = [(0.0, p) for p in range(simd_per_cu)]
        heapq.heapify(pipes)
        for c in group:
            t, p = heapq.heappop(pipes)
            heapq.heappush(pipes, (t + float(c), p))
        out.append(max(t for t, _ in pipes))
    return np.asarray(out, dtype=np.float64)


class TestWorkgroupCostsEquivalence:
    @given(
        wf=st.lists(_finite_cost, min_size=0, max_size=200),
        wf_per_group=st.integers(1, 16),
        simd_per_cu=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_packing(self, wf, wf_per_group, simd_per_cu):
        wf = np.asarray(wf, dtype=np.float64)
        got = workgroup_costs(wf, wf_per_group, simd_per_cu)
        want = _workgroup_costs_reference(wf, wf_per_group, simd_per_cu)
        assert np.array_equal(got, want)
