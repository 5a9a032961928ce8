"""Compressed sparse row (CSR) graph container.

Workloads operate on CSR arrays directly (vectorized NumPy), matching how
GraphBIG kernels walk adjacency lists on the GPU. The container is
immutable after construction; algorithms allocate their own property arrays.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np


class CSRGraph:
    """Directed graph in CSR form with optional edge weights.

    Parameters
    ----------
    indptr:
        ``int64[n+1]`` row pointers.
    indices:
        ``int64[m]`` column indices (destination vertices).
    weights:
        Optional ``float64[m]`` edge weights (for SSSP).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(
                f"indptr must start at 0 and end at len(indices)={indices.size}, "
                f"got [{indptr[0]}, {indptr[-1]}]"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge endpoints out of range")
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise ValueError(
                    f"weights shape {weights.shape} != indices shape {indices.shape}"
                )
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        if self.weights is not None:
            self.weights.setflags(write=False)

    # -- basic properties ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def content_digest(self) -> str:
        """SHA-256 over the CSR arrays, computed once per graph.

        Two graphs with equal arrays share a digest whatever their object
        identity, which is what lets traces be addressed by graph content.
        """
        digest = self.__dict__.get("_content_digest")
        if digest is None:
            h = hashlib.sha256()
            for arr in (self.indptr, self.indices, self.weights):
                if arr is None:
                    h.update(b"none")
                else:
                    h.update(f"{arr.dtype.str}{arr.size}:".encode())
                    h.update(arr.tobytes())
            digest = self._content_digest = h.hexdigest()
        return digest

    def out_degree(self, v: Optional[int] = None) -> np.ndarray | int:
        """Out-degree of vertex ``v``, or the full degree array."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Destination vertices of ``v``'s out-edges (a view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights of ``v``'s out-edges; requires a weighted graph."""
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: Optional[np.ndarray] = None,
        dedup: bool = True,
    ) -> "CSRGraph":
        """Build from parallel edge arrays, sorting (and optionally
        deduplicating) by (src, dst)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have identical shape")
        if src.size and (
            src.min() < 0 or src.max() >= num_vertices
            or dst.min() < 0 or dst.max() >= num_vertices
        ):
            raise ValueError("edge endpoints out of range")
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        w = None if weights is None else np.asarray(weights, dtype=np.float64)[order]
        if dedup and src.size:
            keep = np.ones(src.size, dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst = src[keep], dst[keep]
            if w is not None:
                w = w[keep]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, w)

    def reversed(self) -> "CSRGraph":
        """Graph with all edges reversed (CSC of the original)."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        return CSRGraph.from_edges(n, self.indices, src, self.weights, dedup=False)

    def to_undirected(self) -> "CSRGraph":
        """Symmetrized copy (each edge present in both directions)."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        s = np.concatenate([src, self.indices])
        d = np.concatenate([self.indices, src])
        w = None
        if self.weights is not None:
            w = np.concatenate([self.weights, self.weights])
        return CSRGraph.from_edges(n, s, d, w, dedup=True)

    # -- vectorized frontier expansion ---------------------------------------

    def expand(
        self, vertices: np.ndarray, with_weights: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Gather all out-edges of ``vertices`` in one vectorized pass.

        Returns ``(sources, targets, weights)`` — parallel arrays with one
        entry per edge; ``sources[i]`` repeats the owning vertex. This is
        the building block of every frontier-based kernel.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            empty = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.float64) if with_weights else None
            return empty, empty, w
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.float64) if with_weights else None
            return np.repeat(vertices, counts), empty, w
        # Edge positions: for each vertex, a contiguous run starting at
        # indptr[v]. Output slot i of a run that begins at slot r holds
        # position indptr[v] + (i - r): one ramp plus a per-run offset.
        run_starts = np.cumsum(counts) - counts
        positions = np.arange(total, dtype=np.int64)
        positions += np.repeat(starts - run_starts, counts)
        sources = np.repeat(vertices, counts)
        targets = self.indices[positions]
        weights = None
        if with_weights:
            if self.weights is None:
                raise ValueError("graph is unweighted")
            weights = self.weights[positions]
        return sources, targets, weights

    # -- analysis helpers ---------------------------------------------------

    def degree_stats(self) -> Tuple[float, int]:
        """(mean out-degree, max out-degree)."""
        deg = np.diff(self.indptr)
        if deg.size == 0:
            return 0.0, 0
        return float(deg.mean()), int(deg.max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        w = "weighted" if self.is_weighted else "unweighted"
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, {w})"
