"""On-disk artifact cache — suite graphs across invocations.

Benchmark sessions keep regenerating the same inputs: a standard-scale
R-MAT takes longer to *build* than some of the cells that consume it.
This module persists graphs as ``.npz`` (CSR arrays + a content digest,
verified on load, so a corrupt or stale file is a miss, never a wrong
graph).

Keys are content hashes of the build recipe (dataset, scale, generator
schema version), so bumping :data:`GRAPH_SCHEMA_VERSION` invalidates
every cached graph at once.  Writes are atomic (temp file +
``os.replace``) so concurrent benchmark processes can share one cache
directory; set :envvar:`REPRO_ARTIFACT_CACHE` to enable it for
:func:`repro.harness.suite.build`.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from ..graphs.csr import CSRGraph

__all__ = ["ArtifactCache", "GRAPH_SCHEMA_VERSION", "cache_from_env", "graph_key"]

#: bump to invalidate every cached graph (generator behavior change)
GRAPH_SCHEMA_VERSION = 1

#: environment knob: a directory path enables the cache for suite builds
ENV_VAR = "REPRO_ARTIFACT_CACHE"


def graph_key(name: str, scale: str, version: int = GRAPH_SCHEMA_VERSION) -> str:
    """Content-hash key of a suite-graph build recipe."""
    return hashlib.blake2b(
        f"graph:{name}:{scale}:v{version}".encode(), digest_size=16
    ).hexdigest()


def _graph_digest(indptr: np.ndarray, indices: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(indices, dtype=np.int32).tobytes())
    return h.hexdigest()


class ArtifactCache:
    """Content-hash-keyed file cache under one root directory.

    Layout: ``<root>/graphs/<key>.npz``. All loads verify integrity
    and degrade to a miss on any failure — the cache can only ever save
    time, never change a result.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- graphs ---------------------------------------------------------

    def _graph_path(self, key: str) -> Path:
        return self.root / "graphs" / f"{key}.npz"

    def load_graph(self, key: str) -> CSRGraph | None:
        """The cached graph for ``key``, or ``None`` (miss/corrupt)."""
        path = self._graph_path(key)
        try:
            with np.load(path) as npz:
                indptr = npz["indptr"]
                indices = npz["indices"]
                digest = str(npz["digest"])
            if digest != _graph_digest(indptr, indices):
                raise ValueError("content digest mismatch")
            graph = CSRGraph(indptr, indices, validate=False)
        except (OSError, KeyError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return graph

    def store_graph(self, key: str, graph: CSRGraph) -> Path:
        """Persist ``graph`` under ``key`` (atomic; safe concurrently)."""
        path = self._graph_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as fh:
                np.savez_compressed(
                    fh,
                    indptr=np.ascontiguousarray(graph.indptr, dtype=np.int64),
                    indices=np.ascontiguousarray(graph.indices, dtype=np.int32),
                    digest=_graph_digest(graph.indptr, graph.indices),
                )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


def cache_from_env() -> ArtifactCache | None:
    """The cache configured via :envvar:`REPRO_ARTIFACT_CACHE`, if any."""
    root = os.environ.get(ENV_VAR, "").strip()
    return ArtifactCache(root) if root else None
