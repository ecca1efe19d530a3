"""Unit tests for the run helpers."""

import pytest

from repro.engine.context import RunContext
from repro.gpusim.device import RADEON_HD_7950, SMALL_TEST_DEVICE
from repro.harness.runner import (
    CPU_ALGORITHMS,
    GPU_ALGORITHMS,
    run_cpu_coloring,
    run_gpu_coloring,
)
from repro.harness.suite import build


@pytest.fixture
def graph():
    return build("powerlaw", "tiny")


class TestContextExecutor:
    def test_baseline_config(self):
        ex = RunContext().executor()
        assert ex.config.mapping == "thread"
        assert ex.config.schedule == "grid"
        assert ex.device is RADEON_HD_7950

    def test_options_forwarded(self):
        ex = RunContext(device=SMALL_TEST_DEVICE).executor(
            mapping="hybrid",
            schedule="stealing",
            workgroup_size=8,
            chunk_size=16,
            degree_threshold=7,
        )
        assert ex.config.degree_threshold == 7
        assert ex.device is SMALL_TEST_DEVICE


class TestRunGpu:
    @pytest.mark.parametrize("algo", sorted(GPU_ALGORITHMS))
    def test_all_algorithms_run_and_validate(self, graph, algo):
        r = run_gpu_coloring(graph, algo, RunContext().executor(), seed=1)
        assert r.num_colors > 0
        assert r.total_cycles > 0

    def test_untimed_run(self, graph):
        r = run_gpu_coloring(graph, "maxmin")
        assert r.total_cycles == 0.0

    def test_unknown_algorithm(self, graph):
        with pytest.raises(KeyError, match="unknown GPU algorithm"):
            run_gpu_coloring(graph, "rainbow")

    def test_kwargs_forwarded(self, graph):
        r = run_gpu_coloring(graph, "hybrid-switch", switch_fraction=1.0)
        assert r.extras["maxmin_iterations"] == 0


class TestRunCpu:
    @pytest.mark.parametrize("algo", sorted(CPU_ALGORITHMS))
    def test_all_algorithms_run_and_validate(self, graph, algo):
        r = run_cpu_coloring(graph, algo)
        assert r.num_colors > 0

    def test_unknown_algorithm(self, graph):
        with pytest.raises(KeyError, match="unknown CPU algorithm"):
            run_cpu_coloring(graph, "quantum")
