"""Synthetic graph generators — the input suite.

The paper characterizes coloring behavior across *graph structures*:
degree-skewed social/web-like graphs (where load imbalance bites) versus
near-regular meshes and road networks (where it does not). Its inputs come
from the Pannotia suite / SuiteSparse; those exact files are not
redistributable here, so this module provides deterministic synthetic
stand-ins for each structural class:

==================  =====================================================
paper input class   stand-in
==================  =====================================================
social / citation   :func:`barabasi_albert`, :func:`powerlaw_cluster`
web / Kronecker     :func:`rmat` (Graph500-style R-MAT)
road networks       :func:`delaunay_mesh`, :func:`grid_2d`
FEM / circuit       :func:`grid_3d`, :func:`random_regular`
uniform random      :func:`erdos_renyi`, :func:`random_geometric`
small-world         :func:`watts_strogatz`
==================  =====================================================

All generators take an integer ``seed`` and are fully deterministic; all
return :class:`~repro.graphs.csr.CSRGraph`.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = [
    "erdos_renyi",
    "rmat",
    "barabasi_albert",
    "powerlaw_cluster",
    "grid_2d",
    "grid_3d",
    "delaunay_mesh",
    "random_geometric",
    "watts_strogatz",
    "random_regular",
    "star",
    "clique",
    "path",
    "cycle",
    "complete_bipartite",
]


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# random models
# ----------------------------------------------------------------------


def erdos_renyi(n: int, *, avg_degree: float = 8.0, seed: int = 0) -> CSRGraph:
    """G(n, m) uniform random graph with ``m ≈ n * avg_degree / 2`` edges.

    Sampling is by edge keys (sparse regime), so ``avg_degree`` must be
    far below ``n``; duplicates are merged, which loses a negligible
    fraction of edges.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if avg_degree < 0 or avg_degree >= n:
        raise ValueError("avg_degree must be in [0, n)")
    rng = _rng(seed)
    m = int(round(n * avg_degree / 2))
    if n < 2 or m == 0:
        return CSRGraph.empty(n)
    # Sample exactly m endpoint pairs; self-loop/duplicate losses are a
    # negligible fraction in the sparse regime this targets.
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    return CSRGraph.from_edges(u, v, num_vertices=n)


def rmat(
    scale: int,
    *,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> CSRGraph:
    """Graph500-style R-MAT / Kronecker graph with ``2**scale`` vertices.

    Each edge descends ``scale`` levels of the recursive 2×2 partition
    with probabilities ``(a, b, c, d=1-a-b-c)``. Defaults are the
    Graph500 parameters, producing a heavily degree-skewed graph — the
    canonical worst case for SIMT load imbalance.
    """
    if scale <= 0 or scale > 30:
        raise ValueError("scale must be in (0, 30]")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("R-MAT probabilities must be non-negative")
    rng = _rng(seed)
    n = 1 << scale
    m = n * edge_factor
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    r = np.empty(m)
    for _ in range(scale):
        rng.random(out=r)
        u <<= 1
        u |= r >= a + b  # quadrants c or d: row bit set
        v <<= 1
        # quadrant b, or quadrant d: column bit set
        v |= ((r >= a) & (r < a + b)) | (r >= a + b + c)
    return CSRGraph.from_edges(u, v, num_vertices=n)


#: Vertices whose picks :func:`barabasi_albert` reduces in one vectorized
#: step before it needs NumPy's scalar loop again.
_BA_WINDOW = 64

_WORD = 1 << 32


def barabasi_albert(n: int, *, attach: int = 4, seed: int = 0) -> CSRGraph:
    """Preferential-attachment power-law graph.

    Each arriving vertex attaches to ``attach`` existing vertices chosen
    proportionally to degree (repeated-endpoint trick: sample uniformly
    from the running edge-endpoint list).

    The draws are those of one ``rng.integers(0, len(pool), size=attach)``
    call per vertex, so the graph and the caller's ``Generator`` end state
    match that loop bit for bit. For a pool below ``2**32`` slots NumPy
    maps each uint32 word ``w`` of the generator's stream to slot
    ``(w * h) >> 32`` (Lemire's method, ``h = len(pool)``), rejecting
    ``w`` when ``(w * h) % 2**32 < (2**32 - h) % h``. All words are
    therefore drawn in one block and reduced ``_BA_WINDOW`` vertices at a
    time, assuming each vertex adds ``attach`` distinct picks. A window
    commits its vertices up to the first one where that reduction may be
    wrong: a word NumPy could reject (low half below ``h``), a pick slot
    written inside the window, or a repeated pick. That vertex takes
    NumPy's exact scalar step instead, drawing past the block if
    rejections used it up.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n <= attach:
        raise ValueError("n must exceed attach")
    # Seed clique of attach + 1 vertices keeps early degrees nonzero.
    seed_n = attach + 1
    pool_size = attach * seed_n + 2 * attach * (n - seed_n)
    if pool_size >= _WORD:
        raise ValueError(
            f"barabasi_albert(n={n}, attach={attach}) needs an endpoint pool of "
            f"{pool_size} >= 2**32 slots, where NumPy's draws take another path"
        )
    rng = _rng(seed)
    words = rng.integers(0, _WORD, size=(n - seed_n) * attach, dtype=np.uint32)
    iu, iv = np.triu_indices(seed_n, k=1)
    # endpoint pool: both ends of every edge, in insertion order; each
    # arriving vertex appends a block of k copies of itself, then its picks
    pool = np.empty(pool_size, dtype=np.int64)
    h = 2 * iu.size
    pool[:h:2] = iu
    pool[1:h:2] = iv
    dst = np.empty(iu.size + words.size, dtype=np.int64)
    dst[: iu.size] = iv
    e = iu.size
    picked = np.empty(n - seed_n, dtype=np.int64)  # k of each arriving vertex
    stride = np.arange(0, _BA_WINDOW * 2 * attach, 2 * attach, dtype=np.uint64)
    v, w = seed_n, 0
    while v < n:
        c = min(_BA_WINDOW, n - v, (words.size - w) // attach)
        if c:
            hs = (h + stride[:c])[:, None]
            m = words[w : w + c * attach].reshape(c, attach) * hs
            slots = (m >> 32).astype(np.int64)
            block = pool[h : h + 2 * attach * c].reshape(c, 2, attach)
            block[:, 0] = np.arange(v, v + c)[:, None]
            block[:, 1] = -1  # picks inside the window are not known yet
            picks = np.sort(pool[slots], axis=1)
            bad = (
                ((m & (_WORD - 1)) < hs).any(axis=1)  # NumPy may reject a word
                | (picks[:, 0] < 0)  # read a pick written inside the window
                | (picks[:, 1:] == picks[:, :-1]).any(axis=1)  # repeated pick
            )
            r = int(bad.argmax()) if bad.any() else c
            block[:r, 1] = picks[:r]
            dst[e : e + r * attach] = picks[:r].ravel()
            picked[v - seed_n : v - seed_n + r] = attach
            v, w, h, e = v + r, w + r * attach, h + 2 * attach * r, e + r * attach
            if v == n:
                break
        # NumPy's bounded-draw loop for vertex v, word by word
        chosen = set()
        for _ in range(attach):
            while True:
                word = words[w] if w < words.size else rng.integers(0, _WORD, dtype=np.uint32)
                w += 1
                m = int(word) * h
                if m % _WORD >= (_WORD - h) % h:
                    break
            chosen.add(int(pool[m >> 32]))
        k = len(chosen)
        pool[h : h + k] = v
        pool[h + k : h + 2 * k] = dst[e : e + k] = sorted(chosen)
        picked[v - seed_n] = k
        v, h, e = v + 1, h + 2 * k, e + k
    del pool, words
    src = np.concatenate([iu, np.repeat(np.arange(seed_n, n), picked)])
    return CSRGraph.from_edges(src, dst[:e], num_vertices=n)


def powerlaw_cluster(
    n: int, *, attach: int = 4, triangle_p: float = 0.5, seed: int = 0
) -> CSRGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Like :func:`barabasi_albert` but each preferential attachment is
    followed, with probability ``triangle_p``, by a triangle-closing step
    (connect to a random neighbor of the previous target). Stand-in for
    clustered social/co-authorship networks.
    """
    if not 0.0 <= triangle_p <= 1.0:
        raise ValueError("triangle_p must be in [0, 1]")
    if attach < 1 or n <= attach:
        raise ValueError("need n > attach >= 1")
    rng = _rng(seed)
    adj: list[list[int]] = [[] for _ in range(n)]

    def add(u: int, v: int) -> None:
        adj[u].append(v)
        adj[v].append(u)

    pool: list[int] = []
    seed_n = attach + 1
    for i in range(seed_n):
        for j in range(i + 1, seed_n):
            add(i, j)
            pool += [i, j]
    for newv in range(seed_n, n):
        targets: set[int] = set()
        last = -1
        while len(targets) < attach:
            cand = (
                int(adj[last][rng.integers(0, len(adj[last]))])
                if last >= 0 and adj[last] and rng.random() < triangle_p
                else int(pool[rng.integers(0, len(pool))])
            )
            if cand != newv and cand not in targets:
                targets.add(cand)
                last = cand
        for t in targets:
            add(newv, t)
            pool += [newv, t]
    return CSRGraph.from_adjacency(adj)


# ----------------------------------------------------------------------
# meshes and spatial graphs
# ----------------------------------------------------------------------


def grid_2d(rows: int, cols: int, *, diagonals: bool = False) -> CSRGraph:
    """Regular 2-D lattice (4-connected; 8-connected with ``diagonals``)."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    pairs = [
        (idx[:, :-1], idx[:, 1:]),  # horizontal
        (idx[:-1, :], idx[1:, :]),  # vertical
    ]
    if diagonals:
        pairs.append((idx[:-1, :-1], idx[1:, 1:]))
        pairs.append((idx[:-1, 1:], idx[1:, :-1]))
    u = np.concatenate([p[0].ravel() for p in pairs])
    v = np.concatenate([p[1].ravel() for p in pairs])
    return CSRGraph.from_edges(u, v, num_vertices=rows * cols)


def grid_3d(nx: int, ny: int, nz: int) -> CSRGraph:
    """Regular 3-D lattice, 6-connected — FEM/circuit stand-in."""
    if min(nx, ny, nz) <= 0:
        raise ValueError("dimensions must be positive")
    idx = np.arange(nx * ny * nz, dtype=np.int64).reshape(nx, ny, nz)
    pairs = [
        (idx[:-1, :, :], idx[1:, :, :]),
        (idx[:, :-1, :], idx[:, 1:, :]),
        (idx[:, :, :-1], idx[:, :, 1:]),
    ]
    u = np.concatenate([p[0].ravel() for p in pairs])
    v = np.concatenate([p[1].ravel() for p in pairs])
    return CSRGraph.from_edges(u, v, num_vertices=nx * ny * nz)


def delaunay_mesh(n: int, *, seed: int = 0) -> CSRGraph:
    """Delaunay triangulation of ``n`` uniform random points.

    Planar, near-constant degree (~6) — the standard stand-in for road
    networks and unstructured 2-D meshes (the ``delaunay_nXX`` family in
    the DIMACS/SuiteSparse collections).
    """
    if n < 3:
        raise ValueError("need at least 3 points")
    from scipy.spatial import Delaunay

    rng = _rng(seed)
    pts = rng.random((n, 2))
    tri = Delaunay(pts)
    s = tri.simplices
    u = np.concatenate([s[:, 0], s[:, 1], s[:, 2]])
    v = np.concatenate([s[:, 1], s[:, 2], s[:, 0]])
    return CSRGraph.from_edges(u, v, num_vertices=n)


def random_geometric(n: int, *, radius: float | None = None, seed: int = 0) -> CSRGraph:
    """Random geometric graph on the unit square.

    ``radius`` defaults to the value giving expected average degree ≈ 8.
    Uses a KD-tree, so it scales to large ``n``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    from scipy.spatial import cKDTree

    if radius is None:
        radius = float(np.sqrt(9.0 / (np.pi * n)))
    rng = _rng(seed)
    pts = rng.random((n, 2))
    tree = cKDTree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    if pairs.size == 0:
        return CSRGraph.empty(n)
    return CSRGraph.from_edges(pairs[:, 0], pairs[:, 1], num_vertices=n)


def watts_strogatz(n: int, *, k: int = 6, rewire_p: float = 0.1, seed: int = 0) -> CSRGraph:
    """Small-world ring lattice with random rewiring.

    Each vertex starts connected to its ``k`` nearest ring neighbors
    (``k`` even); each edge's far endpoint is rewired uniformly at random
    with probability ``rewire_p``.
    """
    if k % 2 or k <= 0:
        raise ValueError("k must be positive and even")
    if k >= n:
        raise ValueError("k must be < n")
    if not 0.0 <= rewire_p <= 1.0:
        raise ValueError("rewire_p must be in [0, 1]")
    rng = _rng(seed)
    base = np.arange(n, dtype=np.int64)
    us, vs = [], []
    for off in range(1, k // 2 + 1):
        us.append(base)
        vs.append((base + off) % n)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    rewire = rng.random(u.size) < rewire_p
    v = v.copy()
    v[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    return CSRGraph.from_edges(u, v, num_vertices=n)


def random_regular(n: int, *, degree: int = 8, seed: int = 0, max_tries: int = 50) -> CSRGraph:
    """Random (near-)``degree``-regular graph via the configuration model.

    Stubs are paired randomly; self-loops and duplicate pairings are
    simply dropped, so a few vertices may fall short of ``degree`` — the
    structure stays essentially regular, which is what the load-balance
    experiments need. Retries until ≥ 99 % of the target edges survive.
    """
    if degree <= 0 or degree >= n:
        raise ValueError("need 0 < degree < n")
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    rng = _rng(seed)
    target = n * degree // 2
    best: CSRGraph | None = None
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
        rng.shuffle(stubs)
        g = CSRGraph.from_edges(stubs[0::2], stubs[1::2], num_vertices=n)
        if best is None or g.num_edges > best.num_edges:
            best = g
        if g.num_edges >= 0.99 * target:
            return g
    assert best is not None
    return best


# ----------------------------------------------------------------------
# deterministic micro-structures (used heavily by tests)
# ----------------------------------------------------------------------


def star(leaves: int) -> CSRGraph:
    """Vertex 0 connected to ``leaves`` leaf vertices."""
    if leaves < 0:
        raise ValueError("leaves must be non-negative")
    if leaves == 0:
        return CSRGraph.empty(1)
    v = np.arange(1, leaves + 1, dtype=np.int64)
    return CSRGraph.from_edges(np.zeros(leaves, dtype=np.int64), v)


def clique(n: int) -> CSRGraph:
    """Complete graph K_n."""
    if n <= 0:
        raise ValueError("n must be positive")
    u, v = np.triu_indices(n, k=1)
    return CSRGraph.from_edges(u, v, num_vertices=n)


def path(n: int) -> CSRGraph:
    """Path graph P_n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        return CSRGraph.empty(1)
    u = np.arange(n - 1, dtype=np.int64)
    return CSRGraph.from_edges(u, u + 1, num_vertices=n)


def cycle(n: int) -> CSRGraph:
    """Cycle graph C_n (n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    u = np.arange(n, dtype=np.int64)
    return CSRGraph.from_edges(u, (u + 1) % n, num_vertices=n)


def complete_bipartite(a: int, b: int) -> CSRGraph:
    """Complete bipartite graph K_{a,b}."""
    if a <= 0 or b <= 0:
        raise ValueError("both sides must be positive")
    u = np.repeat(np.arange(a, dtype=np.int64), b)
    v = np.tile(np.arange(a, a + b, dtype=np.int64), a)
    return CSRGraph.from_edges(u, v, num_vertices=a + b)
