"""Unit tests for partitioned (multi-device) coloring."""

import numpy as np
import pytest

from repro.coloring.partitioned import (
    boundary_mask,
    partition_blocks,
    partitioned_coloring,
)
from repro.engine.context import RunContext
from repro.graphs import generators as gen


class TestPartitionBlocks:
    def test_range_blocks_contiguous(self):
        g = gen.path(10)
        block = partition_blocks(g, 2, method="range")
        assert block.tolist() == [0] * 5 + [1] * 5

    def test_bfs_blocks_balanced(self):
        g = gen.grid_2d(10, 10)
        block = partition_blocks(g, 4, method="bfs")
        sizes = np.bincount(block, minlength=4)
        assert sizes.max() - sizes.min() <= 25  # one slab's worth

    def test_every_vertex_assigned(self):
        g = gen.rmat(7, edge_factor=4, seed=0)
        block = partition_blocks(g, 5)
        assert block.min() >= 0
        assert block.max() <= 4

    def test_validation(self):
        g = gen.path(4)
        with pytest.raises(ValueError):
            partition_blocks(g, 0)
        with pytest.raises(ValueError):
            partition_blocks(g, 2, method="metis")


class TestBoundaryMask:
    def test_path_split_in_half(self):
        g = gen.path(6)
        block = np.array([0, 0, 0, 1, 1, 1])
        mask = boundary_mask(g, block)
        assert mask.tolist() == [False, False, True, True, False, False]

    def test_single_block_no_boundary(self):
        g = gen.clique(5)
        assert not boundary_mask(g, np.zeros(5, dtype=np.int64)).any()

    def test_bfs_boundary_smaller_than_range_on_mesh(self):
        g = gen.delaunay_mesh(800, seed=0)
        b_range = boundary_mask(g, partition_blocks(g, 4, method="range")).mean()
        b_bfs = boundary_mask(g, partition_blocks(g, 4, method="bfs")).mean()
        assert b_bfs < b_range

    def test_shape_check(self):
        g = gen.path(4)
        with pytest.raises(ValueError):
            boundary_mask(g, np.zeros(3, dtype=np.int64))


class TestPartitionedColoring:
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_valid_everywhere(self, p):
        g = gen.delaunay_mesh(400, seed=1)
        r = partitioned_coloring(g, num_partitions=p, seed=0)
        r.validate(g)

    def test_single_partition_no_boundary_phase(self):
        g = gen.grid_2d(12, 12)
        r = partitioned_coloring(g, RunContext().executor(), num_partitions=1, seed=0)
        assert r.extras["boundary_fraction"] == 0.0
        assert r.extras["phase2_cycles"] == 0.0

    def test_boundary_fraction_grows_with_partitions(self):
        g = gen.delaunay_mesh(1000, seed=2)
        fracs = [
            partitioned_coloring(g, num_partitions=p, seed=0).extras[
                "boundary_fraction"
            ]
            for p in (2, 4, 8)
        ]
        assert fracs[0] < fracs[1] < fracs[2]

    def test_powerlaw_boundaries_dominate(self):
        mesh = gen.delaunay_mesh(1000, seed=3)
        social = gen.barabasi_albert(1000, attach=6, seed=3)
        mesh_b = partitioned_coloring(mesh, num_partitions=4).extras[
            "boundary_fraction"
        ]
        social_b = partitioned_coloring(social, num_partitions=4).extras[
            "boundary_fraction"
        ]
        assert social_b > 2 * mesh_b

    def test_phase1_is_concurrent_max(self):
        g = gen.grid_2d(30, 30)
        one = partitioned_coloring(g, RunContext().executor(), num_partitions=1, seed=0)
        four = partitioned_coloring(g, RunContext().executor(), num_partitions=4, seed=0)
        assert four.extras["phase1_cycles"] < one.extras["phase1_cycles"]

    def test_timed_and_untimed_agree_on_colors(self):
        g = gen.delaunay_mesh(300, seed=4)
        a = partitioned_coloring(g, seed=5)
        b = partitioned_coloring(g, RunContext().executor(), seed=5)
        assert np.array_equal(a.colors, b.colors)

    def test_color_quality_stays_reasonable(self):
        from repro.coloring.sequential import greedy_first_fit

        g = gen.delaunay_mesh(600, seed=6)
        part = partitioned_coloring(g, num_partitions=4, seed=0)
        greedy = greedy_first_fit(g)
        assert part.num_colors <= greedy.num_colors + 4

    def test_empty_graph(self):
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.empty(5)
        r = partitioned_coloring(g, num_partitions=3)
        r.validate(g)
