"""Shared fixtures: small deterministic graphs, devices, executors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring.kernels import ExecutionConfig, GPUExecutor
from repro.engine.context import RunContext
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.gpusim.device import RADEON_HD_7950, SMALL_TEST_DEVICE


@pytest.fixture
def triangle() -> CSRGraph:
    """K3 — needs exactly 3 colors."""
    return gen.clique(3)


@pytest.fixture
def path5() -> CSRGraph:
    return gen.path(5)


@pytest.fixture
def small_skewed() -> CSRGraph:
    """A 256-vertex R-MAT with real degree skew (deterministic)."""
    return gen.rmat(8, edge_factor=8, seed=1)


@pytest.fixture
def small_uniform() -> CSRGraph:
    """A 16×16 grid — the zero-skew control."""
    return gen.grid_2d(16, 16)


@pytest.fixture
def small_random() -> CSRGraph:
    return gen.erdos_renyi(300, avg_degree=8, seed=3)


@pytest.fixture
def device():
    return RADEON_HD_7950


@pytest.fixture
def tiny_device():
    return SMALL_TEST_DEVICE


@pytest.fixture
def executor(device) -> GPUExecutor:
    """Baseline engine: thread mapping, grid schedule."""
    return RunContext(device=device).executor(ExecutionConfig())


def brute_force_is_valid(graph: CSRGraph, colors: np.ndarray) -> bool:
    """O(n + m) reference validity check used to cross-check the library's."""
    for v in range(graph.num_vertices):
        if colors[v] < 0:
            return False
        for w in graph.neighbors(v):
            if colors[v] == colors[int(w)]:
                return False
    return True
