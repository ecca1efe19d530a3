"""The input-graph suite — synthetic stand-ins for the paper's datasets.

Ten graphs spanning the structural classes the paper characterizes
(degree-skewed social/web graphs through uniform meshes), at three
scales: ``tiny`` (fast unit tests), ``small`` (integration tests) and
``standard`` (the benchmark scale). Built graphs are cached per
``(name, scale)`` so a benchmark session builds each input once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..graphs import generators as gen
from ..graphs.csr import CSRGraph
from ..graphs.stats import GraphSummary, summarize

__all__ = [
    "DatasetSpec",
    "SUITE",
    "SCALES",
    "suite_names",
    "build",
    "summarize_suite",
]

SCALES = ("tiny", "small", "standard")


@dataclass(frozen=True)
class DatasetSpec:
    """One suite entry: a named generator at three scales."""

    name: str
    structural_class: str  # what paper-input family it stands in for
    skewed: bool  # expected to exhibit load imbalance?
    builders: dict[str, Callable[[], CSRGraph]]
    notes: str = ""

    def build(self, scale: str = "standard") -> CSRGraph:
        if scale not in self.builders:
            raise KeyError(f"{self.name} has no scale {scale!r}")
        return self.builders[scale]()


def _spec(name, cls, skewed, tiny, small, standard, notes=""):
    return DatasetSpec(
        name=name,
        structural_class=cls,
        skewed=skewed,
        builders={"tiny": tiny, "small": small, "standard": standard},
        notes=notes,
    )


#: The ten-graph evaluation suite (order = presentation order).
SUITE: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        _spec(
            "rmat",
            "web/Kronecker (Graph500)",
            True,
            lambda: gen.rmat(8, edge_factor=8, seed=1),
            lambda: gen.rmat(11, edge_factor=12, seed=1),
            lambda: gen.rmat(15, edge_factor=16, seed=1),
            "heaviest degree skew in the suite",
        ),
        _spec(
            "powerlaw",
            "social (preferential attachment)",
            True,
            lambda: gen.barabasi_albert(256, attach=4, seed=2),
            lambda: gen.barabasi_albert(2048, attach=6, seed=2),
            lambda: gen.barabasi_albert(32768, attach=8, seed=2),
        ),
        _spec(
            "citation",
            "citation/co-authorship (clustered power law)",
            True,
            lambda: gen.powerlaw_cluster(256, attach=4, triangle_p=0.6, seed=3),
            lambda: gen.powerlaw_cluster(2048, attach=5, triangle_p=0.6, seed=3),
            lambda: gen.powerlaw_cluster(12288, attach=6, triangle_p=0.6, seed=3),
            "Holme–Kim; stands in for citationCiteseer/coAuthorsDBLP",
        ),
        _spec(
            "road",
            "road network / 2-D unstructured mesh",
            False,
            lambda: gen.delaunay_mesh(256, seed=4),
            lambda: gen.delaunay_mesh(2048, seed=4),
            lambda: gen.delaunay_mesh(32768, seed=4),
            "Delaunay triangulation; near-constant degree ≈ 6",
        ),
        _spec(
            "grid2d",
            "structured 2-D stencil",
            False,
            lambda: gen.grid_2d(16, 16),
            lambda: gen.grid_2d(45, 45),
            lambda: gen.grid_2d(181, 181),
        ),
        _spec(
            "grid3d",
            "FEM / circuit (3-D stencil)",
            False,
            lambda: gen.grid_3d(6, 6, 7),
            lambda: gen.grid_3d(13, 13, 12),
            lambda: gen.grid_3d(32, 32, 32),
            "stands in for ecology/G3_circuit-class inputs",
        ),
        _spec(
            "random",
            "uniform random (Erdős–Rényi)",
            False,
            lambda: gen.erdos_renyi(256, avg_degree=8, seed=5),
            lambda: gen.erdos_renyi(2048, avg_degree=12, seed=5),
            lambda: gen.erdos_renyi(32768, avg_degree=16, seed=5),
        ),
        _spec(
            "geometric",
            "wireless / proximity",
            False,
            lambda: gen.random_geometric(256, seed=6),
            lambda: gen.random_geometric(2048, seed=6),
            lambda: gen.random_geometric(32768, seed=6),
        ),
        _spec(
            "smallworld",
            "small-world (Watts–Strogatz)",
            False,
            lambda: gen.watts_strogatz(256, k=6, rewire_p=0.1, seed=7),
            lambda: gen.watts_strogatz(2048, k=8, rewire_p=0.1, seed=7),
            lambda: gen.watts_strogatz(32768, k=8, rewire_p=0.1, seed=7),
        ),
        _spec(
            "regular",
            "near-regular random",
            False,
            lambda: gen.random_regular(256, degree=8, seed=8),
            lambda: gen.random_regular(2048, degree=12, seed=8),
            lambda: gen.random_regular(32768, degree=16, seed=8),
            "configuration model; the zero-imbalance control",
        ),
    ]
}

_CACHE: dict[tuple[str, str], CSRGraph] = {}


def suite_names(*, skewed_only: bool | None = None) -> list[str]:
    """Suite dataset names, optionally filtered by skewed/uniform."""
    return [
        n
        for n, s in SUITE.items()
        if skewed_only is None or s.skewed == skewed_only
    ]


def build(name: str, scale: str = "standard") -> CSRGraph:
    """Build (or fetch cached) suite graph ``name`` at ``scale``.

    Generators are deterministic, so a cached graph is identical to a
    freshly generated one.
    """
    if name not in SUITE:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(SUITE)}")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {SCALES}")
    key = (name, scale)
    if key not in _CACHE:
        _CACHE[key] = SUITE[name].build(scale)
    return _CACHE[key]


def summarize_suite(scale: str = "standard") -> list[GraphSummary]:
    """Datasets-table rows (experiment E1) for the whole suite."""
    return [
        summarize(build(name, scale), name, notes=SUITE[name].structural_class)
        for name in SUITE
    ]
