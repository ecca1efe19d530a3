"""Adversarial-input tests — pathological shapes through the main APIs.

Inputs deliberately built to break naive implementations: a giant star
(one vertex adjacent to everything), a large clique (maximum conflict
density), fully disconnected graphs, near-bipartite traps, and a
single-vertex graph. Every algorithm and schedule must stay correct;
the simulator must stay finite and sensible.
"""

import numpy as np
import pytest

from repro.coloring.kernels import SCHEDULES
from repro.engine.context import RunContext
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.harness.runner import GPU_ALGORITHMS, run_gpu_coloring


def two_cliques(k: int) -> CSRGraph:
    """Two disjoint K_k's — tests disconnected handling."""
    iu, iv = np.triu_indices(k, 1)
    u = np.concatenate([iu, iu + k])
    v = np.concatenate([iv, iv + k])
    return CSRGraph.from_edges(u, v, num_vertices=2 * k)


def lollipop(k: int, tail: int) -> CSRGraph:
    """K_k with a path of length `tail` hanging off vertex 0."""
    iu, iv = np.triu_indices(k, 1)
    pu = np.concatenate([[0], np.arange(k, k + tail - 1)])
    pv = np.arange(k, k + tail)
    return CSRGraph.from_edges(
        np.concatenate([iu, pu]), np.concatenate([iv, pv]), num_vertices=k + tail
    )


ADVERSARIES = {
    "mega_star": gen.star(5000),
    "big_clique": gen.clique(150),
    "two_cliques": two_cliques(60),
    "lollipop": lollipop(40, 500),
    "singleton": CSRGraph.empty(1),
    "all_isolated": CSRGraph.empty(1000),
    "single_edge_many_isolated": CSRGraph.from_edges([0], [1], num_vertices=1000),
    "long_path": gen.path(20_000),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
@pytest.mark.parametrize("algo", sorted(GPU_ALGORITHMS))
class TestAlgorithmsSurvive:
    def test_valid_coloring(self, name, algo):
        g = ADVERSARIES[name]
        r = run_gpu_coloring(g, algo, seed=0)
        assert r.num_colors >= (1 if g.num_vertices else 0)


@pytest.mark.parametrize("schedule", SCHEDULES)
class TestSchedulesSurvive:
    def test_mega_star_timed(self, schedule):
        g = ADVERSARIES["mega_star"]
        r = run_gpu_coloring(g, "maxmin", RunContext().executor(schedule=schedule), seed=0)
        assert np.isfinite(r.total_cycles)
        assert r.total_cycles > 0

    def test_all_isolated_near_free(self, schedule):
        g = ADVERSARIES["all_isolated"]
        r = run_gpu_coloring(g, "maxmin", RunContext().executor(schedule=schedule), seed=0)
        # one sweep colors everything: cost ≈ one launch + small kernel
        assert r.num_iterations == 1
        assert r.num_colors == 1


class TestExpectedStructuralAnswers:
    def test_star_two_colors(self):
        r = run_gpu_coloring(ADVERSARIES["mega_star"], "jp", seed=0)
        assert r.num_colors == 2

    def test_clique_needs_k(self):
        r = run_gpu_coloring(ADVERSARIES["big_clique"], "speculative", seed=0)
        assert r.num_colors == 150

    def test_two_cliques_same_as_one(self):
        r = run_gpu_coloring(ADVERSARIES["two_cliques"], "jp", seed=0)
        assert r.num_colors == 60

    def test_long_path_few_colors(self):
        r = run_gpu_coloring(ADVERSARIES["long_path"], "jp", seed=0)
        assert r.num_colors <= 3

    def test_hybrid_crushes_the_star_kernel(self):
        # the star IS one hub: the cooperative mapping must dominate
        g = ADVERSARIES["mega_star"]
        thread = RunContext().executor().time_iteration(g.degrees).cycles
        hybrid = RunContext().executor(mapping="hybrid").time_iteration(g.degrees).cycles
        assert hybrid < 0.25 * thread

    def test_sequential_handles_long_path(self):
        from repro.coloring.sequential import dsatur

        g = ADVERSARIES["long_path"]
        assert dsatur(g).validate(g).num_colors == 2

    def test_stats_on_adversaries(self):
        from repro.graphs.stats import degeneracy, summarize

        assert degeneracy(ADVERSARIES["mega_star"]) == 1
        assert degeneracy(ADVERSARIES["big_clique"]) == 149
        s = summarize(ADVERSARIES["single_edge_many_isolated"], "sparse")
        assert s.num_components == 999
