"""Unit tests for the dynamic-fetch load balancer."""

import numpy as np
import pytest

from repro.loadbalance.dynamic import simulate_dynamic_fetch
from repro.loadbalance.workstealing import simulate_static_persistent


class TestDynamicFetch:
    def test_hand_case_no_overhead(self):
        res = simulate_dynamic_fetch(
            np.array([3.0, 1.0, 2.0, 2.0]),
            2,
            atomic_cycles=0.0,
            contention_factor=0.0,
        )
        # same greedy schedule as the scheduler test: busy [5, 3]
        assert res.busy_cycles.tolist() == [5.0, 3.0]
        assert res.makespan_cycles == 5.0

    def test_fetch_overhead_grows_with_chunk_count(self):
        work = np.full(64, 10.0)
        fine = simulate_dynamic_fetch(work, 4, atomic_cycles=50.0)
        coarse_work = np.full(8, 80.0)  # same total, 8× coarser
        coarse = simulate_dynamic_fetch(coarse_work, 4, atomic_cycles=50.0)
        assert fine.total_overhead > coarse.total_overhead

    def test_contention_term(self):
        work = np.full(16, 10.0)
        few = simulate_dynamic_fetch(work, 2, contention_factor=10.0)
        many = simulate_dynamic_fetch(work, 8, contention_factor=10.0)
        per_fetch_few = few.total_overhead / 16
        per_fetch_many = many.total_overhead / 16
        assert per_fetch_many > per_fetch_few

    def test_balances_skewed_ownership(self):
        # static slab ownership is irrelevant to dynamic fetch: compare makespans
        costs = np.concatenate([np.full(30, 100.0), np.full(2, 1.0)])
        owner = np.zeros(32, dtype=np.int64)
        static = simulate_static_persistent(costs, owner, 4)
        dyn = simulate_dynamic_fetch(costs, 4, atomic_cycles=1.0)
        assert dyn.makespan_cycles < 0.5 * static.makespan_cycles

    def test_all_work_executes(self):
        costs = np.random.default_rng(0).uniform(1, 50, 37)
        res = simulate_dynamic_fetch(costs, 5)
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())
        assert res.chunks_executed.sum() == 37

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_dynamic_fetch(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            simulate_dynamic_fetch(np.array([-1.0]), 2)
        with pytest.raises(ValueError):
            simulate_dynamic_fetch(np.array([1.0]), 2, atomic_cycles=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_costs(self, bad):
        with pytest.raises(ValueError, match="finite"):
            simulate_dynamic_fetch(np.array([1.0, bad]), 2)

    def test_empty(self):
        res = simulate_dynamic_fetch(np.array([]), 3)
        assert res.makespan_cycles == 0.0
