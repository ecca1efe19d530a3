"""Unit tests for graph file I/O."""

import gzip
import tracemalloc

import pytest

from repro.graphs import generators as gen
from repro.graphs import io as gio


@pytest.fixture
def sample():
    return gen.rmat(7, edge_factor=6, seed=4)


class TestRoundTrips:
    def test_matrix_market(self, sample, tmp_path):
        p = tmp_path / "g.mtx"
        gio.write_matrix_market(sample, p)
        assert gio.read_matrix_market(p) == sample

    def test_dimacs(self, sample, tmp_path):
        p = tmp_path / "g.col"
        gio.write_dimacs_coloring(sample, p)
        assert gio.read_dimacs_coloring(p) == sample

    def test_metis(self, sample, tmp_path):
        p = tmp_path / "g.graph"
        gio.write_metis(sample, p)
        assert gio.read_metis(p) == sample

    def test_edge_list(self, sample, tmp_path):
        p = tmp_path / "g.el"
        gio.write_edge_list(sample, p)
        assert gio.read_edge_list(p) == sample

    def test_gzipped_edge_list(self, sample, tmp_path):
        p = tmp_path / "g.el.gz"
        gio.write_edge_list(sample, p)
        with gzip.open(p, "rt") as fh:  # really gzipped
            assert fh.readline().startswith("#")
        assert gio.read_edge_list(p) == sample

    def test_isolated_vertices_survive_dimacs(self, tmp_path):
        g = gen.star(3).subgraph([0, 1, 2, 3])  # keep all; then add isolate
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges([0], [1], num_vertices=5)
        p = tmp_path / "iso.col"
        gio.write_dimacs_coloring(g, p)
        assert gio.read_dimacs_coloring(p).num_vertices == 5

    def test_isolated_vertices_survive_metis(self, tmp_path):
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges([0], [1], num_vertices=4)
        p = tmp_path / "iso.graph"
        gio.write_metis(g, p)
        assert gio.read_metis(p) == g


class TestLoadDispatch:
    @pytest.mark.parametrize(
        "name,writer",
        [
            ("g.mtx", gio.write_matrix_market),
            ("g.col", gio.write_dimacs_coloring),
            ("g.graph", gio.write_metis),
            ("g.txt", gio.write_edge_list),
        ],
    )
    def test_load_graph_by_extension(self, sample, tmp_path, name, writer):
        p = tmp_path / name
        writer(sample, p)
        assert gio.load_graph(p) == sample

    def test_load_graph_gz_dispatch(self, sample, tmp_path):
        p = tmp_path / "g.col.gz"
        gio.write_dimacs_coloring(sample, p)
        assert gio.load_graph(p) == sample


class TestDimacsParsing:
    def test_reads_canonical_file(self, tmp_path):
        p = tmp_path / "tri.col"
        p.write_text("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 3 1\n")
        g = gio.read_dimacs_coloring(p)
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_missing_problem_line(self, tmp_path):
        p = tmp_path / "bad.col"
        p.write_text("e 1 2\n")
        with pytest.raises(ValueError, match="problem line"):
            gio.read_dimacs_coloring(p)

    def test_malformed_edge_line(self, tmp_path):
        p = tmp_path / "bad.col"
        p.write_text("p edge 3 1\ne 1\n")
        with pytest.raises(ValueError, match="edge line"):
            gio.read_dimacs_coloring(p)

    def test_malformed_problem_line(self, tmp_path):
        p = tmp_path / "bad.col"
        p.write_text("p something 3\n")
        with pytest.raises(ValueError, match="problem line"):
            gio.read_dimacs_coloring(p)


class TestMetisParsing:
    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("% header comment\n3 2\n2\n1 3\n2\n")
        g = gio.read_metis(p)
        assert g.num_edges == 2

    def test_weighted_rejected(self, tmp_path):
        p = tmp_path / "w.graph"
        p.write_text("3 2 001\n2 5\n1 5 3 7\n2 7\n")
        with pytest.raises(ValueError, match="weighted"):
            gio.read_metis(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.graph"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            gio.read_metis(p)

    def test_too_many_lines_rejected(self, tmp_path):
        p = tmp_path / "over.graph"
        p.write_text("2 1\n2\n1\n1\n")
        with pytest.raises(ValueError, match="more adjacency"):
            gio.read_metis(p)


class TestEdgeListParsing:
    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("# snap style\n\n0 1\n% percent comment\n1 2\n")
        g = gio.read_edge_list(p)
        assert g.num_edges == 2

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("0\n")
        with pytest.raises(ValueError, match="malformed"):
            gio.read_edge_list(p)

    def test_explicit_num_vertices(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text("0 1\n")
        g = gio.read_edge_list(p, num_vertices=10)
        assert g.num_vertices == 10


@pytest.mark.parametrize(
    "name,text,reader,line,token",
    [
        ("bad.col", "c comment\np edge 2 1\ne 1 x\n", gio.read_dimacs_coloring, 3, "x"),
        ("bad.col", "p edge n 1\n", gio.read_dimacs_coloring, 1, "n"),
        ("bad.graph", "% comment\n2 1\n2 x\n1\n", gio.read_metis, 3, "x"),
        ("bad.graph", "two 1\n", gio.read_metis, 1, "two"),
        ("bad.el", "# comment\n0 1\n1 y\n", gio.read_edge_list, 3, "y"),
    ],
    ids=["dimacs-edge", "dimacs-problem", "metis-adjacency", "metis-header", "edge-list"],
)
def test_non_integer_field_names_its_line(tmp_path, name, text, reader, line, token):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(gio.GraphFormatError) as exc:
        reader(p)
    assert isinstance(exc.value, ValueError)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{p}:{line}: ")
    assert repr(token) in str(exc.value)


MM_BANNER = "%%MatrixMarket matrix coordinate pattern symmetric\n% a comment\n"


@pytest.mark.parametrize(
    "size_line",
    [
        "10 10",
        "10 10 1 1",
        "10 x 1",
        "10 12 1",
        "99999999999 99999999999 1",
        "2147483648 2147483648 1",
        "10 10 -1",
        "10 10 99999999999",
        "1000 1000 5000",
    ],
    ids=[
        "two-fields",
        "four-fields",
        "non-integer",
        "not-square",
        "rows-745GiB",
        "rows-over-int32",
        "negative-nnz",
        "nnz-373GiB",
        "nnz-over-file-size",
    ],
)
def test_hostile_matrix_market_size_line_is_refused(tmp_path, size_line):
    p = tmp_path / "hostile.mtx"
    p.write_text(f"{MM_BANNER}{size_line}\n1 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(gio.GraphFormatError) as exc:
            gio.read_matrix_market(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.line == 3
    assert str(exc.value).startswith(f"{p}:3: ")
    assert peak < 1 << 20
