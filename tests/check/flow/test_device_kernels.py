"""The device-kernel specs cannot drift: execute them against the code.

Every per-thread kernel in :mod:`repro.coloring.device_kernels` is run
one thread at a time (the snapshot ``colors_in``/``colors_out``
convention makes launches order-independent) and compared bit-for-bit
with one round of the vectorized implementation it documents. The
wavefront-cooperative kernel runs its 64 lanes in *descending* order,
which serializes the log-depth tree reduction exactly as lockstep
would: lane ``i``'s fold at step ``s`` reads lane ``i+s``, whose own
folds all happen at strictly larger steps.
"""

from __future__ import annotations

import ast

import numpy as np
import pytest

from repro.coloring._nbr import first_fit_colors, neighbor_max, neighbor_min
from repro.coloring.base import UNCOLORED
from repro.coloring.device_kernels import (
    DEVICE_KERNELS,
    KERNEL_ALGORITHMS,
    ec_decide,
    ec_edge_fold,
    jp_sweep,
    kernel_ast,
    kernels_for,
    maxmin_sweep,
    maxmin_wavefront_sweep,
    spec_assign,
    spec_detect,
)
from repro.coloring.interp import INTERP_ALGORITHMS, ThreadLauncher, run_coloring
from repro.harness.suite import build


@pytest.fixture(scope="module")
def graph():
    return build("rmat", "tiny")


@pytest.fixture(scope="module")
def priorities(graph):
    return np.random.default_rng(7).permutation(graph.num_vertices)


@pytest.fixture(scope="module")
def partial_colors(graph):
    """A partial color state: ~30% colored, the rest UNCOLORED."""
    rng = np.random.default_rng(11)
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    mask = rng.random(n) < 0.3
    colors[mask] = rng.integers(0, 4, size=int(mask.sum()))
    return colors


def directed_edges(graph):
    """(u, v) per CSR entry — one work item per directed edge."""
    u = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    return u, graph.indices


def vec_maxmin_round(graph, priorities, colors, k):
    """One vectorized max-min sweep, verbatim from maxmin_coloring."""
    uncolored = colors == UNCOLORED
    pr_hi = np.where(uncolored, priorities, -np.inf)
    pr_lo = np.where(uncolored, priorities, np.inf)
    nbr_hi = neighbor_max(graph, pr_hi)
    nbr_lo = neighbor_min(graph, pr_lo)
    out = colors.copy()
    is_max = uncolored & (priorities > nbr_hi)
    is_min = uncolored & (priorities < nbr_lo) & ~is_max
    out[is_max] = 2 * k
    out[is_min] = 2 * k + 1
    return out


class TestRegistry:
    def test_every_algorithm_has_thread_kernels(self):
        for algorithm in KERNEL_ALGORITHMS:
            assert kernels_for(algorithm)

    def test_unknown_algorithm_raises_with_known_list(self):
        with pytest.raises(KeyError, match="maxmin"):
            kernels_for("nope")
        with pytest.raises(KeyError):
            kernels_for("jp", mapping="wavefront")

    def test_array_params_exclude_ids_and_uniforms(self):
        k = DEVICE_KERNELS["maxmin_sweep"]
        assert "tid" not in k.array_params
        assert "round_k" not in k.array_params
        assert "indptr" in k.array_params and "colors_out" in k.array_params

    def test_kernel_ast_is_the_function(self):
        for k in DEVICE_KERNELS.values():
            node = kernel_ast(k)
            assert isinstance(node, ast.FunctionDef) and node.name == k.name


class TestThreadKernelEquivalence:
    def test_maxmin_sweep(self, graph, priorities, partial_colors):
        for k in (0, 3):
            expected = vec_maxmin_round(graph, priorities, partial_colors, k)
            out = partial_colors.copy()
            for tid in range(graph.num_vertices):
                maxmin_sweep(
                    tid, graph.indptr, graph.indices, priorities,
                    partial_colors, out, k,
                )
            np.testing.assert_array_equal(out, expected)

    def test_jp_sweep(self, graph, priorities, partial_colors):
        uncolored = partial_colors == UNCOLORED
        pr_hi = np.where(uncolored, priorities, -np.inf)
        winners = uncolored & (priorities > neighbor_max(graph, pr_hi))
        winner_ids = np.flatnonzero(winners)
        expected = partial_colors.copy()
        expected[winner_ids] = first_fit_colors(graph, partial_colors, winner_ids)

        out = partial_colors.copy()
        for tid in range(graph.num_vertices):
            jp_sweep(
                tid, graph.indptr, graph.indices, priorities, partial_colors, out
            )
        np.testing.assert_array_equal(out, expected)

    def test_spec_assign(self, graph, partial_colors):
        active = np.flatnonzero(partial_colors == UNCOLORED)
        expected = partial_colors.copy()
        expected[active] = first_fit_colors(graph, partial_colors, active)

        out = partial_colors.copy()
        for tid in range(graph.num_vertices):
            spec_assign(tid, graph.indptr, graph.indices, partial_colors, out)
        np.testing.assert_array_equal(out, expected)

    def test_spec_detect(self, graph, priorities, partial_colors):
        # make conflicts likely: speculatively color everything first
        colors = partial_colors.copy()
        active = np.flatnonzero(colors == UNCOLORED)
        colors[active] = first_fit_colors(graph, partial_colors, active)

        u, v = directed_edges(graph)
        mono = (
            (colors[u] != UNCOLORED)
            & (colors[u] == colors[v])
            & (priorities[u] < priorities[v])
        )
        expected = colors.copy()
        expected[np.unique(u[mono])] = UNCOLORED
        assert (expected != colors).any()  # the state does exercise conflicts

        out = colors.copy()
        for tid in range(graph.num_vertices):
            spec_detect(
                tid, graph.indptr, graph.indices, priorities, colors, out
            )
        np.testing.assert_array_equal(out, expected)

    def test_edge_centric_pair_matches_maxmin_round(
        self, graph, priorities, partial_colors
    ):
        k = 2
        expected = vec_maxmin_round(graph, priorities, partial_colors, k)

        n = graph.num_vertices
        u, v = directed_edges(graph)
        acc_max = np.full(n, -np.inf)
        acc_min = np.full(n, np.inf)
        # the sequential fold IS the atomic fold: max/min commute
        for tid in range(u.size):
            ec_edge_fold(tid, u, v, priorities, partial_colors, acc_max, acc_min)
        out = partial_colors.copy()
        for tid in range(n):
            ec_decide(tid, priorities, partial_colors, out, acc_max, acc_min, k)
        np.testing.assert_array_equal(out, expected)


class TestWavefrontKernelEquivalence:
    def test_maxmin_wavefront_sweep(self, graph, priorities, partial_colors):
        k = 1
        wfs = 64
        expected = vec_maxmin_round(graph, priorities, partial_colors, k)

        out = partial_colors.copy()
        for wid in range(graph.num_vertices):
            scratch_max = np.zeros(wfs)
            scratch_min = np.zeros(wfs)
            # descending lane order = lockstep tree reduction (see module
            # docstring); every lane writes its partial before any reader
            for lane in reversed(range(wfs)):
                maxmin_wavefront_sweep(
                    wid, lane, graph.indptr, graph.indices, priorities,
                    partial_colors, out, scratch_max, scratch_min, k, wfs,
                )
        np.testing.assert_array_equal(out, expected)


class TestDeclaredDtypes:
    """The registered ``param_dtypes`` match what the drivers pass.

    Every launch the end-to-end driver issues is intercepted and each
    array argument's numpy dtype compared against the kernel's declared
    dtype table — the same table the type inference and the overflow
    certificates key off. A silent drift here
    would make every certificate vacuous, so it is pinned at runtime.
    """

    class _Checking(ThreadLauncher):
        def __init__(self):
            self.seen: set[tuple[str, str]] = set()
            self.mismatches: list[tuple[str, str, str, str | None]] = []

        def launch(self, name, count, /, **params):
            declared = DEVICE_KERNELS[name].dtypes
            for p, val in params.items():
                if not isinstance(val, np.ndarray):
                    continue
                want = declared.get(p)
                if want is None or np.dtype(want) != val.dtype:
                    self.mismatches.append((name, p, str(val.dtype), want))
                self.seen.add((name, p))
            super().launch(name, count, **params)

    def test_driver_arguments_match_declarations(self, graph):
        launcher = self._Checking()
        for algorithm in INTERP_ALGORITHMS:
            run_coloring(graph, algorithm, launcher)
        run_coloring(graph, "maxmin", launcher, mapping="wavefront")
        assert launcher.mismatches == []
        # every registered kernel's array params were actually exercised
        for kernel in DEVICE_KERNELS.values():
            for p in kernel.array_params:
                assert (kernel.name, p) in launcher.seen, (kernel.name, p)

    def test_every_kernel_declares_every_param(self):
        for kernel in DEVICE_KERNELS.values():
            declared = set(kernel.dtypes)
            assert declared == set(kernel.params), kernel.name
