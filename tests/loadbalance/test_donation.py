"""Unit tests for the work-donation runtime."""

import numpy as np
import pytest

from repro.loadbalance.donation import DonationConfig, simulate_work_donation
from repro.loadbalance.workstealing import simulate_static_persistent


class TestDonation:
    def test_all_work_executes(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(10, 200, 50)
        owner = np.arange(50) % 4
        res = simulate_work_donation(costs, owner, DonationConfig(num_workers=4))
        assert res.chunks_executed.sum() == 50
        assert res.busy_cycles.sum() == pytest.approx(costs.sum())

    def test_beats_static_on_all_on_one_worker(self):
        costs = np.full(40, 100.0)
        owner = np.zeros(40, dtype=np.int64)
        cfg = DonationConfig(num_workers=4, donate_cycles=20.0, fetch_cycles=10.0)
        donated = simulate_work_donation(costs, owner, cfg)
        static = simulate_static_persistent(costs, owner, 4)
        assert donated.makespan_cycles < 0.5 * static.makespan_cycles
        assert donated.chunks_migrated > 0

    def test_no_donation_below_threshold(self):
        # 2 chunks per worker, threshold 4 → never donates
        costs = np.full(8, 10.0)
        owner = np.arange(8) % 4
        cfg = DonationConfig(num_workers=4, donate_threshold=4)
        res = simulate_work_donation(costs, owner, cfg)
        assert res.chunks_migrated == 0

    def test_deterministic(self):
        costs = np.random.default_rng(1).pareto(1.2, 60) * 50 + 5
        owner = np.arange(60) % 3
        cfg = DonationConfig(num_workers=3)
        a = simulate_work_donation(costs, owner, cfg)
        b = simulate_work_donation(costs, owner, cfg)
        assert a.makespan_cycles == b.makespan_cycles
        assert np.array_equal(a.chunks_executed, b.chunks_executed)

    def test_overheads_accounted(self):
        costs = np.full(20, 50.0)
        owner = np.zeros(20, dtype=np.int64)
        cfg = DonationConfig(
            num_workers=2, donate_cycles=7.0, fetch_cycles=3.0, pop_cycles=1.0
        )
        res = simulate_work_donation(costs, owner, cfg)
        assert res.total_overhead > 0

    def test_single_worker_serial(self):
        costs = np.array([5.0, 5.0, 5.0])
        res = simulate_work_donation(
            costs, np.zeros(3, dtype=np.int64), DonationConfig(num_workers=1)
        )
        assert res.busy_cycles.tolist() == [15.0]
        assert res.chunks_migrated == 0

    def test_empty_workload(self):
        res = simulate_work_donation(
            np.array([]), np.array([]), DonationConfig(num_workers=2)
        )
        assert res.makespan_cycles == 0.0

    def test_makespan_at_least_critical_chunk(self):
        costs = np.array([500.0, 1.0, 1.0])
        owner = np.zeros(3, dtype=np.int64)
        res = simulate_work_donation(
            costs, owner, DonationConfig(num_workers=3, donate_threshold=1)
        )
        assert res.makespan_cycles >= 500.0


class TestDonationConfigValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            DonationConfig(num_workers=0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            DonationConfig(num_workers=1, donate_threshold=0)

    @pytest.mark.parametrize(
        "field", ["donate_cycles", "fetch_cycles", "pop_cycles", "retry_cycles"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_overheads(self, field, bad):
        # a NaN pop once gave makespan 0.0 with NaN overheads, raising nothing
        with pytest.raises(ValueError, match="finite and non-negative"):
            DonationConfig(num_workers=2, **{field: bad})

    def test_max_failed_attempts_at_least_one(self):
        with pytest.raises(ValueError, match="max_failed_attempts"):
            DonationConfig(num_workers=2, max_failed_attempts=0)
        DonationConfig(num_workers=2, max_failed_attempts=1)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            simulate_work_donation(
                np.array([-1.0]), np.array([0]), DonationConfig(num_workers=1)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_costs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            simulate_work_donation(
                np.array([1.0, bad]), np.array([0, 0]), DonationConfig(num_workers=1)
            )

    def test_owner_out_of_range(self):
        with pytest.raises(ValueError):
            simulate_work_donation(
                np.array([1.0]), np.array([5]), DonationConfig(num_workers=2)
            )
