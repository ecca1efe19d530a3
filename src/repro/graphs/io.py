"""Graph file I/O — the formats the paper's input suite ships in.

Supports reading and writing:

* **Matrix Market** (``.mtx``) pattern/coordinate files — the SuiteSparse
  distribution format (via :mod:`scipy.io`).
* **DIMACS coloring** (``.col``) — the classic ``p edge n m`` / ``e u v``
  format of the graph-coloring benchmark suite.
* **METIS** (``.graph``) — adjacency-list format used by partitioning
  tools and the Pannotia inputs.
* **Edge list** (``.txt``/``.el``) — whitespace-separated ``u v`` pairs,
  ``#`` comments (SNAP-style).

All readers return :class:`~repro.graphs.csr.CSRGraph` (undirected,
deduplicated, self-loops dropped); all writers round-trip with the
matching reader. The DIMACS, METIS and edge-list readers raise
:class:`GraphFormatError` naming ``path:line`` for input they cannot
parse; the Matrix Market reader raises it for a size line that would
size an allocation the file cannot fill.
"""

from __future__ import annotations

import gzip
import os
from collections.abc import Iterator
from pathlib import Path
from typing import IO

import numpy as np

from .csr import _INT32_MAX, CSRGraph

__all__ = [
    "GraphFormatError",
    "load_graph",
    "read_matrix_market",
    "write_matrix_market",
    "read_dimacs_coloring",
    "write_dimacs_coloring",
    "read_metis",
    "write_metis",
    "read_edge_list",
    "write_edge_list",
]


class GraphFormatError(ValueError):
    """A graph file that does not parse; the message starts ``path:line:``."""

    def __init__(self, path: str | os.PathLike, line: int | None, message: str) -> None:
        self.path = os.fspath(path)
        self.line = line
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")


def _ints(path: str | os.PathLike, line: int, tokens: list[str]) -> list[int]:
    """``tokens`` as ints; a :class:`GraphFormatError` names the first that is not."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise GraphFormatError(path, line, f"expected an integer, got {tok!r}") from None
    return values


def _open_text(path: str | os.PathLike, mode: str = "rt") -> IO[str]:
    p = Path(path)
    if p.suffix == ".gz":
        return gzip.open(p, mode)  # type: ignore[return-value]
    return open(p, mode)


def load_graph(path: str | os.PathLike) -> CSRGraph:
    """Load a graph, dispatching on file extension.

    ``.mtx`` → Matrix Market, ``.col`` → DIMACS coloring, ``.graph`` →
    METIS, anything else → edge list. A trailing ``.gz`` is transparent.
    """
    p = Path(path)
    suffix = p.suffixes[-2] if p.suffix == ".gz" and len(p.suffixes) >= 2 else p.suffix
    if suffix == ".mtx":
        return read_matrix_market(p)
    if suffix == ".col":
        return read_dimacs_coloring(p)
    if suffix == ".graph":
        return read_metis(p)
    return read_edge_list(p)


# ----------------------------------------------------------------------
# Matrix Market
# ----------------------------------------------------------------------


def _check_mm_size_line(path: str | os.PathLike) -> None:
    """Refuse a size line that would size an allocation the file cannot fill.

    ``rows cols nnz`` must be a square matrix with int32 vertex ids and
    at most ``rows * cols`` entries; an uncompressed file must also be
    large enough to hold ``nnz`` entry lines of at least ``"1 1\\n"``.
    """
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("%"):
                break
        else:
            raise GraphFormatError(path, None, "missing 'rows cols nnz' size line")
    parts = line.split()
    if len(parts) != 3:
        raise GraphFormatError(path, lineno, f"expected 'rows cols nnz', got {line!r}")
    rows, cols, nnz = _ints(path, lineno, parts)
    if rows != cols:
        raise GraphFormatError(path, lineno, f"adjacency matrix must be square, got {rows}x{cols}")
    if not 0 <= rows <= _INT32_MAX:
        raise GraphFormatError(path, lineno, f"{rows} rows outside [0, {_INT32_MAX}] (int32 ids)")
    if not 0 <= nnz <= rows * cols:
        raise GraphFormatError(path, lineno, f"{nnz} entries do not fit a {rows}x{cols} matrix")
    if Path(path).suffix != ".gz" and 4 * nnz > os.path.getsize(path):
        raise GraphFormatError(path, lineno, f"{nnz} entries do not fit in the file")


def read_matrix_market(path: str | os.PathLike) -> CSRGraph:
    """Read a Matrix Market coordinate file as an undirected graph.

    The size line is checked (:func:`_check_mm_size_line`) before
    :func:`scipy.io.mmread` allocates anything from it.
    """
    _check_mm_size_line(path)
    import scipy.io as sio

    mat = sio.mmread(os.fspath(path))
    return CSRGraph.from_scipy(mat)


def write_matrix_market(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the pattern adjacency as a symmetric Matrix Market file."""
    import scipy.io as sio

    sio.mmwrite(os.fspath(path), graph.to_scipy(), field="pattern", symmetry="symmetric")


# ----------------------------------------------------------------------
# DIMACS coloring (.col)
# ----------------------------------------------------------------------


def read_dimacs_coloring(path: str | os.PathLike) -> CSRGraph:
    """Read a DIMACS ``.col`` file (1-based ``e u v`` lines)."""
    n = -1
    us: list[int] = []
    vs: list[int] = []
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) < 4 or parts[1] not in ("edge", "edges", "col"):
                    raise GraphFormatError(path, lineno, f"malformed problem line: {line!r}")
                (n,) = _ints(path, lineno, parts[2:3])
            elif parts[0] == "e":
                if len(parts) < 3:
                    raise GraphFormatError(path, lineno, f"malformed edge line: {line!r}")
                u, v = _ints(path, lineno, parts[1:3])
                us.append(u - 1)
                vs.append(v - 1)
    if n < 0:
        raise GraphFormatError(path, None, "missing 'p edge' problem line")
    return CSRGraph.from_edges(us, vs, num_vertices=n)


def write_dimacs_coloring(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a DIMACS ``.col`` file (1-based, each edge once)."""
    u, v = graph.edge_array()
    with _open_text(path, "wt") as fh:
        fh.write("c generated by repro.graphs.io\n")
        fh.write(f"p edge {graph.num_vertices} {u.size}\n")
        for a, b in zip(u + 1, v + 1, strict=True):
            fh.write(f"e {a} {b}\n")


# ----------------------------------------------------------------------
# METIS (.graph)
# ----------------------------------------------------------------------


def read_metis(path: str | os.PathLike) -> CSRGraph:
    """Read a METIS adjacency file (1-based neighbor lists per line).

    Only the unweighted format (fmt code absent or ``0``/``00``/``000``)
    is supported; weighted files raise :class:`GraphFormatError`.
    """
    with _open_text(path) as fh:
        lines = _metis_lines(fh)
        lineno, header = next(lines, (None, None))
        if header is None:
            raise GraphFormatError(path, None, "empty METIS file")
        head = _ints(path, lineno, header.split())
        if not head:
            raise GraphFormatError(path, lineno, f"malformed header line: {header!r}")
        n = head[0]
        if len(head) >= 3 and head[2] != 0:
            raise GraphFormatError(path, lineno, "weighted METIS graphs are not supported")
        us: list[int] = []
        vs: list[int] = []
        for u, (lineno, line) in enumerate(lines):
            if u >= n:
                raise GraphFormatError(path, lineno, "more adjacency lines than vertices")
            for w in _ints(path, lineno, line.split()):
                us.append(u)
                vs.append(w - 1)
    return CSRGraph.from_edges(us, vs, num_vertices=n)


def _metis_lines(fh: IO[str]) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(fh, 1):
        line = raw.rstrip("\n")
        if line.startswith("%"):
            continue
        yield lineno, line


def write_metis(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a METIS adjacency file (1-based)."""
    with _open_text(path, "wt") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        indptr, indices = graph.indptr, graph.indices
        for v in range(graph.num_vertices):
            nbrs = indices[indptr[v] : indptr[v + 1]].astype(np.int64) + 1
            fh.write(" ".join(map(str, nbrs.tolist())) + "\n")


# ----------------------------------------------------------------------
# edge list
# ----------------------------------------------------------------------


def read_edge_list(path: str | os.PathLike, *, num_vertices: int | None = None) -> CSRGraph:
    """Read a whitespace-separated ``u v`` edge list (0-based, ``#`` comments)."""
    us: list[int] = []
    vs: list[int] = []
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                # Our writer records the vertex count in the header
                # comment so isolated trailing vertices round-trip.
                parts = line[1:].split()
                if (
                    num_vertices is None
                    and len(parts) >= 2
                    and parts[1].startswith("vertices")
                    and parts[0].isdigit()
                ):
                    num_vertices = int(parts[0])
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(path, lineno, f"malformed edge line: {line!r}")
            u, v = _ints(path, lineno, parts[:2])
            us.append(u)
            vs.append(v)
    return CSRGraph.from_edges(us, vs, num_vertices=num_vertices)


def write_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write each undirected edge once as ``u v`` (0-based)."""
    u, v = graph.edge_array()
    with _open_text(path, "wt") as fh:
        fh.write(f"# {graph.num_vertices} vertices, {u.size} edges\n")
        for a, b in zip(u, v, strict=True):
            fh.write(f"{a} {b}\n")
