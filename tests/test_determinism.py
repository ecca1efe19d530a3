"""Determinism contract across the whole API matrix.

Everything in this library — generators, algorithms, schedulers, the
stealing/donation runtimes, the autotuner — must be exactly
reproducible given its seeds. These tests run representative slices of
the matrix twice and demand bit-identical outcomes (colors AND cycles),
because the benchmarks' recorded numbers rely on it.
"""

import numpy as np
import pytest

from repro.coloring.kernels import MAPPINGS, SCHEDULES
from repro.engine.context import RunContext
from repro.harness.runner import GPU_ALGORITHMS, run_gpu_coloring
from repro.harness.suite import build


def _run(algo, mapping="thread", schedule="grid", seed=7):
    g = build("powerlaw", "tiny")
    ex = RunContext().executor(mapping=mapping, schedule=schedule)
    return run_gpu_coloring(g, algo, ex, seed=seed), ex


@pytest.mark.parametrize("algo", sorted(GPU_ALGORITHMS))
class TestAlgorithmDeterminism:
    def test_colors_and_cycles_identical(self, algo):
        a, _ = _run(algo)
        b, _ = _run(algo)
        assert np.array_equal(a.colors, b.colors)
        assert a.total_cycles == b.total_cycles
        assert [it.cycles for it in a.iterations] == [
            it.cycles for it in b.iterations
        ]

    def test_counters_identical(self, algo):
        _, ex1 = _run(algo)
        _, ex2 = _run(algo)
        assert ex1.counters.total_cycles == ex2.counters.total_cycles
        assert ex1.counters.kernels_launched == ex2.counters.kernels_launched


@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("schedule", SCHEDULES)
class TestModeDeterminism:
    def test_timing_identical_across_runs(self, mapping, schedule):
        a, _ = _run("maxmin", mapping=mapping, schedule=schedule)
        b, _ = _run("maxmin", mapping=mapping, schedule=schedule)
        assert a.total_cycles == b.total_cycles


class TestRuntimeDeterminism:
    def test_stealing_identical(self):
        from repro.loadbalance.workstealing import (
            StealingConfig,
            simulate_work_stealing,
        )

        rng = np.random.default_rng(0)
        costs = rng.pareto(1.2, 80) * 50 + 1
        owner = np.arange(80) % 6
        cfg = StealingConfig(num_workers=6, seed=11)
        a = simulate_work_stealing(costs, owner, cfg)
        b = simulate_work_stealing(costs, owner, cfg)
        assert a.makespan_cycles == b.makespan_cycles
        assert np.array_equal(a.overhead_cycles, b.overhead_cycles)

    def test_donation_identical(self):
        from repro.loadbalance.donation import DonationConfig, simulate_work_donation

        costs = np.full(40, 25.0)
        owner = np.zeros(40, dtype=np.int64)
        cfg = DonationConfig(num_workers=5)
        a = simulate_work_donation(costs, owner, cfg)
        b = simulate_work_donation(costs, owner, cfg)
        assert a.makespan_cycles == b.makespan_cycles

    def test_autotune_identical(self):
        from repro.harness.autotune import autotune

        g = build("citation", "tiny")
        a = autotune(g, seed=5)
        b = autotune(g, seed=5)
        assert a.best == b.best
        assert [c for _, c in a.scoreboard] == [c for _, c in b.scoreboard]

    def test_detailed_model_identical(self):
        from repro.gpusim.detailed import DetailedParams, detailed_dispatch
        from repro.gpusim.device import RADEON_HD_7950

        rng = np.random.default_rng(3)
        comp = rng.uniform(10, 200, 500)
        acc = rng.integers(0, 8, 500).astype(float)
        a = detailed_dispatch(comp, acc, RADEON_HD_7950, DetailedParams())
        b = detailed_dispatch(comp, acc, RADEON_HD_7950, DetailedParams())
        assert a.cycles == b.cycles


class TestGeneratorDeterminism:
    def test_suite_rebuild_identical(self):
        # bypass the cache: rebuild from the specs directly
        from repro.harness.suite import SUITE

        for name, spec in SUITE.items():
            assert spec.build("tiny") == spec.build("tiny"), name
