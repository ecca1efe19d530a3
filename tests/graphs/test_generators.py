"""Unit tests for the synthetic graph generators."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.stats import degree_cv
from repro.harness.suite import SCALES, SUITE
from repro.store.db import graph_digest

#: ``graph_digest`` of every suite graph at every scale. Store rows and the
#: golden digests are keyed by these graphs, so generators and
#: ``CSRGraph.from_edges`` must reproduce them bit for bit.
SUITE_DIGESTS = json.loads(
    (Path(__file__).parent.parent / "data" / "suite_graph_digests.json").read_text()
)


class TestErdosRenyi:
    def test_edge_count_near_target(self):
        g = gen.erdos_renyi(2000, avg_degree=10, seed=0)
        assert g.num_vertices == 2000
        # duplicates cost a few percent at this density
        assert 0.9 * 10000 <= g.num_edges <= 1.1 * 10000

    def test_deterministic(self):
        assert gen.erdos_renyi(200, seed=7) == gen.erdos_renyi(200, seed=7)
        assert gen.erdos_renyi(200, seed=7) != gen.erdos_renyi(200, seed=8)

    def test_zero_degree(self):
        g = gen.erdos_renyi(50, avg_degree=0, seed=0)
        assert g.num_edges == 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen.erdos_renyi(0)
        with pytest.raises(ValueError):
            gen.erdos_renyi(10, avg_degree=20)


class TestRmat:
    def test_size(self):
        g = gen.rmat(10, edge_factor=8, seed=0)
        assert g.num_vertices == 1024
        assert g.num_edges > 1024  # dedup/self-loop losses, but plenty left

    def test_skewed_degrees(self):
        skewed = gen.rmat(10, edge_factor=8, seed=0)
        uniform = gen.erdos_renyi(1024, avg_degree=16, seed=0)
        assert degree_cv(skewed) > 3 * degree_cv(uniform)

    def test_deterministic(self):
        assert gen.rmat(8, seed=3) == gen.rmat(8, seed=3)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            gen.rmat(8, a=0.9, b=0.9, c=0.9)
        with pytest.raises(ValueError):
            gen.rmat(0)


class TestBarabasiAlbert:
    def test_growth(self):
        g = gen.barabasi_albert(500, attach=3, seed=0)
        assert g.num_vertices == 500
        # each arrival adds at most `attach` edges
        assert g.num_edges <= 3 + 497 * 3
        assert g.num_edges >= 497  # at least one per arrival

    def test_min_degree_positive(self):
        g = gen.barabasi_albert(300, attach=2, seed=1)
        assert g.degrees.min() >= 1

    def test_hub_emerges(self):
        g = gen.barabasi_albert(2000, attach=4, seed=0)
        assert g.max_degree > 5 * g.mean_degree

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen.barabasi_albert(3, attach=4)
        with pytest.raises(ValueError):
            gen.barabasi_albert(10, attach=0)

    @pytest.mark.parametrize(
        "n, attach",
        [
            (2**31 + 1, 1),  # pool exactly 2**32
            (2**28 + 5, 8),
            (2**40, 4),
        ],
    )
    def test_pool_size_checked_before_allocating(self, n, attach):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n={n}, attach={attach}"):
                gen.barabasi_albert(n, attach=attach)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # nothing of the pool's size was allocated


def _reference_barabasi_albert(n, attach, rng):
    """The per-vertex loop ``barabasi_albert`` must reproduce draw for draw."""
    seed_n = attach + 1
    iu, iv = np.triu_indices(seed_n, k=1)
    src, dst = iu.tolist(), iv.tolist()
    pool = np.column_stack([iu, iv]).ravel().tolist()
    for newv in range(seed_n, n):
        picks = sorted({pool[i] for i in rng.integers(0, len(pool), size=attach).tolist()})
        src += [newv] * len(picks)
        dst += picks
        pool += [newv] * len(picks)
        pool += picks
    return CSRGraph.from_edges(src, dst, num_vertices=n)


def _state(rng):
    """``bit_generator.state`` with arrays as lists, so states compare with ``==``."""

    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    return plain(rng.bit_generator.state)


class TestBarabasiAlbertStream:
    """The block-drawn generator equals one ``integers`` call per vertex."""

    def assert_same_as_reference(self, n, attach, make_rng):
        ours, theirs = make_rng(), make_rng()
        built = gen.barabasi_albert(n, attach=attach, seed=ours)
        expected = _reference_barabasi_albert(n, attach, theirs)
        assert graph_digest(built) == graph_digest(expected)
        assert np.array_equal(built.indptr, expected.indptr)
        assert np.array_equal(built.indices, expected.indices)
        assert _state(ours) == _state(theirs)
        return built, ours

    @pytest.mark.parametrize(
        "bit_generator",
        [
            np.random.PCG64,
            np.random.MT19937,
            np.random.Philox,
            np.random.SFC64,
            np.random.PCG64DXSM,
        ],
    )
    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "half-word"])
    @pytest.mark.parametrize("n, attach", [(400, 3), (150, 1)])
    def test_bit_generators(self, bit_generator, buffered, n, attach):
        def make_rng():
            rng = np.random.Generator(bit_generator(5))
            if buffered:  # leaves half of a 64-bit output buffered
                rng.integers(0, 2**32, dtype=np.uint32)
            return rng

        self.assert_same_as_reference(n, attach, make_rng)

    def test_duplicate_picks_dominate(self):
        # 20 picks among the 21 seed-clique vertices: most arrivals repeat one
        n, attach = 60, 20
        g, _ = self.assert_same_as_reference(n, attach, lambda: np.random.default_rng(3))
        arrivals = range(attach + 1, n)
        short = [v for v in arrivals if np.count_nonzero(g.neighbors(v) < v) < attach]
        assert len(short) > 0.9 * len(arrivals)

    def test_standard_powerlaw_graph(self):
        # The suite's standard powerlaw graph; its stream has a real Lemire
        # rejection, so the generator draws past its block of words.
        n, attach = 32768, 8
        _, ours = self.assert_same_as_reference(n, attach, lambda: np.random.default_rng(2))
        block_only = np.random.default_rng(2)
        block_only.integers(0, 2**32, size=(n - attach - 1) * attach, dtype=np.uint32)
        assert _state(block_only) != _state(ours)
        block_only.integers(0, 2**32, dtype=np.uint32)
        assert _state(block_only) == _state(ours)


class TestPowerlawCluster:
    def test_size_and_determinism(self):
        g = gen.powerlaw_cluster(200, attach=3, seed=2)
        assert g.num_vertices == 200
        assert g == gen.powerlaw_cluster(200, attach=3, seed=2)

    def test_clustering_beats_ba(self):
        from repro.graphs.stats import clustering_coefficient_estimate

        plc = gen.powerlaw_cluster(400, attach=4, triangle_p=0.9, seed=0)
        ba = gen.barabasi_albert(400, attach=4, seed=0)
        assert clustering_coefficient_estimate(
            plc, samples=400
        ) > clustering_coefficient_estimate(ba, samples=400)

    def test_rejects_bad_triangle_p(self):
        with pytest.raises(ValueError):
            gen.powerlaw_cluster(100, triangle_p=1.5)


class TestGrids:
    def test_grid2d_structure(self):
        g = gen.grid_2d(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.degree(0) == 2  # corner
        assert g.max_degree == 4

    def test_grid2d_diagonals(self):
        g = gen.grid_2d(3, 3, diagonals=True)
        assert g.max_degree == 8
        assert g.has_edge(0, 4)  # diagonal through center

    def test_grid3d_structure(self):
        g = gen.grid_3d(3, 3, 3)
        assert g.num_vertices == 27
        assert g.max_degree == 6
        assert g.degree(0) == 3  # corner

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            gen.grid_2d(0, 5)
        with pytest.raises(ValueError):
            gen.grid_3d(2, 0, 2)


class TestSpatial:
    def test_delaunay_planar_degrees(self):
        g = gen.delaunay_mesh(500, seed=0)
        assert g.num_vertices == 500
        # planar: m <= 3n - 6
        assert g.num_edges <= 3 * 500 - 6
        assert 5.0 < g.mean_degree < 6.1  # Delaunay average ≈ 6

    def test_delaunay_connected_mesh(self):
        from repro.graphs.stats import connected_components

        g = gen.delaunay_mesh(200, seed=1)
        assert connected_components(g).max() == 0

    def test_geometric_default_radius(self):
        g = gen.random_geometric(1000, seed=0)
        assert 4 < g.mean_degree < 14  # targets ≈ 8

    def test_geometric_explicit_radius_monotone(self):
        small = gen.random_geometric(400, radius=0.03, seed=0)
        large = gen.random_geometric(400, radius=0.08, seed=0)
        assert large.num_edges > small.num_edges

    def test_delaunay_needs_three_points(self):
        with pytest.raises(ValueError):
            gen.delaunay_mesh(2)


class TestWattsStrogatz:
    def test_no_rewire_is_ring_lattice(self):
        g = gen.watts_strogatz(20, k=4, rewire_p=0.0, seed=0)
        assert np.all(g.degrees == 4)
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_rewire_perturbs(self):
        ring = gen.watts_strogatz(100, k=6, rewire_p=0.0, seed=0)
        rewired = gen.watts_strogatz(100, k=6, rewire_p=0.5, seed=0)
        assert rewired != ring
        # edge count shrinks only slightly (self-loop/dup drops)
        assert rewired.num_edges >= 0.9 * ring.num_edges

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            gen.watts_strogatz(20, k=3)
        with pytest.raises(ValueError):
            gen.watts_strogatz(5, k=6)


class TestRandomRegular:
    def test_near_regular(self):
        g = gen.random_regular(400, degree=10, seed=0)
        assert g.num_vertices == 400
        assert g.max_degree <= 10
        assert g.num_edges >= 0.97 * 2000
        assert degree_cv(g) < 0.1

    def test_rejects_odd_product(self):
        with pytest.raises(ValueError):
            gen.random_regular(5, degree=3)

    def test_rejects_degree_ge_n(self):
        with pytest.raises(ValueError):
            gen.random_regular(4, degree=4)


class TestMicroStructures:
    def test_star(self):
        g = gen.star(6)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))

    def test_star_zero_leaves(self):
        assert gen.star(0).num_vertices == 1

    def test_clique(self):
        g = gen.clique(5)
        assert g.num_edges == 10
        assert np.all(g.degrees == 4)

    def test_path_and_cycle(self):
        assert gen.path(6).num_edges == 5
        assert gen.path(1).num_edges == 0
        assert gen.cycle(6).num_edges == 6
        assert np.all(gen.cycle(6).degrees == 2)

    def test_cycle_minimum_size(self):
        with pytest.raises(ValueError):
            gen.cycle(2)

    def test_complete_bipartite(self):
        g = gen.complete_bipartite(2, 3)
        assert g.num_edges == 6
        assert g.degree(0) == 3
        assert g.degree(2) == 2
        assert not g.has_edge(0, 1)  # same side
        assert not g.has_edge(2, 3)


class TestPinnedOutput:
    @pytest.mark.parametrize("name", list(SUITE))
    def test_suite_graph_digests(self, name):
        # built directly, past the process and on-disk graph caches
        built = {scale: graph_digest(SUITE[name].build(scale)) for scale in SCALES}
        assert built == SUITE_DIGESTS[name]

    @pytest.mark.parametrize(
        "build, digest, state",
        [
            (
                lambda rng: gen.barabasi_albert(300, attach=3, seed=rng),
                "8df5dfcc335aaf4f2754bf4cb7a94b08",
                328760523545876813581688679490044801178,
            ),
            (
                lambda rng: gen.rmat(8, edge_factor=4, seed=rng),
                "a05a80b1e29fbe0b6749ecabe3d29781",
                69153971303579998625266246881379330414,
            ),
        ],
        ids=["barabasi_albert", "rmat"],
    )
    def test_generator_state_after_call(self, build, digest, state):
        # a caller's Generator advances by exactly the same draws
        rng = np.random.default_rng(11)
        assert graph_digest(build(rng)) == digest
        after = rng.bit_generator.state
        assert (after["state"]["state"], after["has_uint32"]) == (state, 0)
