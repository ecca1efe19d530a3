"""Unit tests for the work-stealing runtime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadbalance.workstealing import (
    StealingConfig,
    simulate_static_persistent,
    simulate_work_stealing,
)


def skewed_chunks(num_chunks=64, seed=0):
    rng = np.random.default_rng(seed)
    costs = rng.pareto(1.2, size=num_chunks) * 100 + 10
    owner = np.arange(num_chunks) // (num_chunks // 4)  # 4 workers, slabs
    return costs, owner


class TestStaticPersistent:
    def test_hand_case(self):
        costs = np.array([5.0, 1.0, 1.0])
        owner = np.array([0, 1, 1])
        res = simulate_static_persistent(costs, owner, 2, pop_cycles=0.0)
        assert res.makespan_cycles == 5.0
        assert res.busy_cycles.tolist() == [5.0, 2.0]
        assert res.chunks_executed.tolist() == [1, 2]
        assert res.load_imbalance == pytest.approx(5.0 / 3.5)

    def test_pop_overhead_counted(self):
        res = simulate_static_persistent(
            np.array([1.0, 1.0]), np.array([0, 0]), 1, pop_cycles=2.0
        )
        assert res.makespan_cycles == pytest.approx(6.0)
        assert res.total_overhead == pytest.approx(4.0)

    def test_rejects_bad_owner(self):
        with pytest.raises(ValueError):
            simulate_static_persistent(np.array([1.0]), np.array([5]), 2)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            simulate_static_persistent(np.array([1.0, 2.0]), np.array([0]), 2)

    @pytest.mark.parametrize("costs", [[-5.0, 1.0], [1.0, np.inf], [np.nan, 1.0]])
    def test_rejects_bad_costs(self, costs):
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_static_persistent(np.array(costs), np.array([0, 1]), 2)

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
            | st.sampled_from([0.0, -0.0, 1e-300, 0.1, 3.0]),
            max_size=80,
        ),
        workers=st.integers(1, 20),
        pop=st.sampled_from([0.0, 8.0, 2.5]),
    )
    def test_omitted_owner_sums_the_slabs_like_add_at(self, costs, workers, pop):
        # owner=None means the contiguous slabs arange(n) // ceil(n / workers)
        costs = np.array(costs, dtype=np.float64)
        owner = np.arange(costs.size) // max(1, -(-costs.size // workers))
        slab = simulate_static_persistent(costs, None, workers, pop_cycles=pop)
        scatter = simulate_static_persistent(costs, owner, workers, pop_cycles=pop)
        assert repr(slab.makespan_cycles) == repr(scatter.makespan_cycles)
        for field in ("busy_cycles", "overhead_cycles", "chunks_executed"):
            a, b = getattr(slab, field), getattr(scatter, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("owner", [None, np.array([], dtype=np.int64)])
    def test_no_chunks_gives_float_zero_busy(self, owner):
        res = simulate_static_persistent(np.array([]), owner, 3)
        assert res.busy_cycles.dtype == np.float64
        assert res.busy_cycles.tolist() == [0.0, 0.0, 0.0]
        assert res.makespan_cycles == 0.0

    def test_omitted_owner_needs_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            simulate_static_persistent(np.array([1.0]), None, 0)


class TestWorkStealing:
    def test_all_work_executes(self):
        costs, owner = skewed_chunks()
        cfg = StealingConfig(num_workers=4, seed=1)
        res = simulate_work_stealing(costs, owner, cfg)
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())
        assert res.chunks_executed.sum() == costs.size

    def test_beats_static_on_skewed_load(self):
        # all chunks start on worker 0 — static is maximally imbalanced
        costs = np.full(32, 100.0)
        owner = np.zeros(32, dtype=np.int64)
        cfg = StealingConfig(num_workers=4, steal_cycles=10.0, seed=0)
        stealing = simulate_work_stealing(costs, owner, cfg)
        static = simulate_static_persistent(costs, owner, 4)
        assert stealing.makespan_cycles < 0.5 * static.makespan_cycles
        assert stealing.steals_succeeded > 0
        assert stealing.chunks_migrated > 0

    def test_balanced_load_steals_little(self):
        costs = np.full(40, 10.0)
        owner = np.arange(40) % 4
        cfg = StealingConfig(num_workers=4, seed=0)
        res = simulate_work_stealing(costs, owner, cfg)
        # each worker has equal work; stealing shouldn't migrate much
        assert res.chunks_migrated <= 10
        assert res.load_imbalance < 1.1

    def test_deterministic(self):
        costs, owner = skewed_chunks()
        cfg = StealingConfig(num_workers=4, seed=42)
        a = simulate_work_stealing(costs, owner, cfg)
        b = simulate_work_stealing(costs, owner, cfg)
        assert a.makespan_cycles == b.makespan_cycles
        assert a.steal_attempts == b.steal_attempts
        assert np.array_equal(a.busy_cycles, b.busy_cycles)

    def test_richest_policy_avoids_empty_victims(self):
        costs = np.full(16, 50.0)
        owner = np.zeros(16, dtype=np.int64)
        cfg = StealingConfig(num_workers=4, steal_policy="richest", seed=0)
        res = simulate_work_stealing(costs, owner, cfg)
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())
        # richest policy: every attempt while work exists succeeds
        assert res.steals_succeeded >= res.steal_attempts - 3 * 4

    def test_steal_overhead_charged(self):
        costs = np.full(8, 10.0)
        owner = np.zeros(8, dtype=np.int64)
        cfg = StealingConfig(num_workers=2, steal_cycles=7.0, pop_cycles=1.0, seed=0)
        res = simulate_work_stealing(costs, owner, cfg)
        expected = res.steal_attempts * 7.0 + res.chunks_executed.sum() * 1.0
        assert res.total_overhead == pytest.approx(expected)

    def test_single_worker_degenerates_to_serial(self):
        costs = np.array([3.0, 4.0, 5.0])
        res = simulate_work_stealing(
            costs, np.zeros(3, dtype=np.int64), StealingConfig(num_workers=1)
        )
        assert res.busy_cycles.tolist() == [12.0]
        assert res.steal_attempts == 0

    def test_empty_workload(self):
        res = simulate_work_stealing(
            np.array([]), np.array([]), StealingConfig(num_workers=3)
        )
        assert res.makespan_cycles == 0.0
        assert res.chunks_executed.sum() == 0

    def test_makespan_never_below_critical_chunk(self):
        costs = np.array([1000.0, 1.0, 1.0, 1.0])
        owner = np.array([0, 1, 2, 3])
        res = simulate_work_stealing(
            costs, owner, StealingConfig(num_workers=4, seed=0)
        )
        assert res.makespan_cycles >= 1000.0

    def test_as_row_keys(self):
        costs, owner = skewed_chunks(8)
        res = simulate_work_stealing(
            costs, owner, StealingConfig(num_workers=4, seed=0)
        )
        assert {"makespan", "steals_ok", "migrated"} <= set(res.as_row())


class TestStealingEdgeCases:
    """Boundary behavior: whole-deque steals, degenerate worker counts,
    empty-victim scans, and failed-attempt bookkeeping."""

    def test_steal_fraction_one_takes_whole_deque(self):
        # fraction=1.0: one successful steal empties the victim's queue.
        costs = np.full(16, 20.0)
        owner = np.zeros(16, dtype=np.int64)
        cfg = StealingConfig(num_workers=2, steal_fraction=1.0, seed=0)
        res = simulate_work_stealing(costs, owner, cfg)
        # work is conserved even when entire deques migrate at once
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())
        assert res.chunks_executed.sum() == costs.size
        assert res.steals_succeeded >= 1
        # the first steal grabs everything still queued on the victim,
        # so migration is chunky: more chunks moved than steals made
        assert res.chunks_migrated > res.steals_succeeded

    def test_steal_fraction_one_conserves_under_skew(self):
        rng = np.random.default_rng(7)
        costs = rng.pareto(1.2, size=48) * 100 + 10
        owner = np.zeros(48, dtype=np.int64)
        cfg = StealingConfig(num_workers=6, steal_fraction=1.0, seed=3)
        res = simulate_work_stealing(costs, owner, cfg)
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())
        assert res.chunks_executed.sum() == costs.size

    def test_single_worker_never_attempts_steal(self):
        # num_workers=1: no victims exist; both policies must terminate
        # with zero attempts rather than scanning/indexing into nothing.
        costs = np.array([3.0, 4.0, 5.0])
        owner = np.zeros(3, dtype=np.int64)
        for policy in ("random", "richest"):
            cfg = StealingConfig(num_workers=1, steal_policy=policy)
            res = simulate_work_stealing(costs, owner, cfg)
            assert res.steal_attempts == 0
            assert res.busy_cycles.tolist() == [12.0]

    def test_richest_all_empty_deques_terminates(self):
        # richest scan over all-empty deques: workers retire immediately
        # (remaining == 0), never selecting a phantom victim.
        res = simulate_work_stealing(
            np.array([]),
            np.array([]),
            StealingConfig(num_workers=4, steal_policy="richest"),
        )
        assert res.steal_attempts == 0
        assert res.makespan_cycles == 0.0

    def test_richest_never_fails_while_work_queued(self):
        # Invariant behind the defensive None branch: `remaining` counts
        # queued-not-started chunks, so whenever a worker attempts a
        # steal under the richest policy some deque is non-empty — every
        # attempt succeeds.
        costs, owner = skewed_chunks(64, seed=5)
        cfg = StealingConfig(num_workers=4, steal_policy="richest", seed=5)
        res = simulate_work_stealing(costs, owner, cfg)
        assert res.steal_attempts > 0
        assert res.steals_succeeded == res.steal_attempts

    def test_random_policy_failed_attempts_terminate(self):
        # One giant chunk in flight, everything else drained: random
        # thieves hit empty victims and must give up after
        # max_failed_attempts rather than spinning forever.
        costs = np.array([10_000.0, 1.0])
        owner = np.array([0, 0])
        cfg = StealingConfig(
            num_workers=3, steal_cycles=5.0, max_failed_attempts=4, seed=0
        )
        res = simulate_work_stealing(costs, owner, cfg)
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())
        assert res.steal_attempts > res.steals_succeeded  # some failed
        # failed attempts still pay for their atomics
        assert res.total_overhead >= res.steal_attempts * 5.0


class TestStealingConfigValidation:
    def test_bad_policy(self):
        with pytest.raises(ValueError):
            StealingConfig(num_workers=2, steal_policy="greedy")

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            StealingConfig(num_workers=2, steal_fraction=0.0)
        with pytest.raises(ValueError):
            StealingConfig(num_workers=2, steal_fraction=1.5)

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            StealingConfig(num_workers=0)

    def test_negative_overheads(self):
        with pytest.raises(ValueError):
            StealingConfig(num_workers=1, steal_cycles=-1)

    @pytest.mark.parametrize("field", ["steal_cycles", "pop_cycles"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_overheads(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            StealingConfig(num_workers=2, **{field: bad})

    def test_max_failed_attempts_at_least_one(self):
        with pytest.raises(ValueError, match="max_failed_attempts"):
            StealingConfig(num_workers=2, max_failed_attempts=0)
        StealingConfig(num_workers=2, max_failed_attempts=1)


class TestStealingCostValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_bad_costs(self, bad):
        # NaN once slipped through `costs.min() < 0` and came back as
        # a finite makespan with NaN busy cycles
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_work_stealing(
                np.array([10.0, bad]), np.array([0, 1]), StealingConfig(num_workers=2)
            )
