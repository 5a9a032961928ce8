"""Breadth-first search variants (GraphBIG GPU kernels).

All variants compute the same depths; they differ in how work maps to GPU
threads, which changes traffic and divergence:

- ``bfs-ta`` — topology-driven, atomic per inspected edge: every level
  scans all vertices and issues a depth-CAS for every edge of active ones.
- ``bfs-ttc`` — topology-driven thread-centric: one thread per vertex,
  scattered adjacency reads, high divergence; atomics only on unvisited
  targets.
- ``bfs-twc`` — topology-driven warp-centric: a warp cooperates per
  vertex, coalescing adjacency reads and erasing divergence.
- ``bfs-dwc`` — data-driven (frontier queue) warp-centric: only frontier
  vertices are touched.

Each workload runs ``num_sources`` traversals back to back (the evaluation
drives BFS as a query stream — single-source runs on the LDBC graph are
too short to exercise thermal behaviour, Sec. V).

Trace kernel. The queries are independent, so their levels can advance
together: with ``F`` the sparse (vertex, query) frontier and ``A`` the
adjacency matrix, one product ``Aᵀ·F`` per level reaches every query's
next level at once (computed as its transpose ``Fᵀ·A`` so each query is
a row). Entry ``(q, t)`` counts query ``q``'s frontier edges into ``t``;
per-query counts are row sums — frontier sizes, ``deg·F`` edges, and the
new ``(q, t)`` pairs the visited bitmap lets through. Each level's
product is split into blocks of queries under a pair budget, which
bounds its transient memory. Counts stay in integer dtypes throughout, and
the epochs are emitted query-major, one traversal after another. A run's
sources are split into query blocks, one per CPU, that run concurrently
(:func:`~repro.workloads.base.query_block_epochs`).
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph
from repro.workloads import base
from repro.workloads.base import (
    EpochCounts,
    GraphWorkload,
    TrafficCoefficients,
    budget_ranges,
    query_block_epochs,
)


def bfs_depths(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference level-synchronous BFS; -1 marks unreachable vertices."""
    depth = np.full(graph.num_vertices, -1, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        _, targets, _ = graph.expand(frontier)
        unvisited = np.unique(targets[depth[targets] == -1])
        depth[unvisited] = level + 1
        frontier = unvisited
        level += 1
    return depth


def pick_sources(graph: CSRGraph, count: int, seed: int) -> np.ndarray:
    """Deterministic query sources, biased to well-connected vertices."""
    deg = np.asarray(graph.out_degree())
    candidates = np.flatnonzero(deg > 0)
    if candidates.size == 0:
        return np.zeros(min(count, 1), dtype=np.int64)
    rng = np.random.default_rng(seed)
    return rng.choice(candidates, size=min(count, candidates.size), replace=False)


def adjacency_matrix(graph: CSRGraph) -> sp.csr_matrix:
    """``A`` with an int32 one per edge. Product entries count edges into a
    vertex, bounded by the edge count, so int32 keeps them exact."""
    if graph.num_edges > np.iinfo(np.int32).max:
        raise OverflowError("edge count exceeds the int32 product range")
    return sp.csr_matrix(
        (np.ones(graph.num_edges, dtype=np.int32),
         graph.indices.astype(np.int32), graph.indptr.astype(np.int32)),
        shape=(graph.num_vertices, graph.num_vertices),
    )


def frontier_matrix(
    indptr: np.ndarray, vertices: np.ndarray, num_vertices: int
) -> sp.csr_matrix:
    """``Fᵀ``, query-major: row ``q`` holds an int32 one for each vertex in
    ``vertices[indptr[q]:indptr[q + 1]]``."""
    return sp.csr_matrix(
        (np.ones(vertices.size, dtype=np.int32), vertices, indptr),
        shape=(indptr.size - 1, num_vertices),
    )


def bfs_level_counts_batched(
    graph: CSRGraph, sources: np.ndarray, count_unvisited: bool
) -> np.ndarray:
    """Per-level counts of every query, advanced together.

    Returns int64 ``[level, query, (frontier, edges, atomics, updated)]``;
    a query's rows are zero from the level after its last one. Atomics
    equal edges unless ``count_unvisited`` (then: edges into unvisited
    targets).
    """
    n = graph.num_vertices
    nq = sources.size
    adjacency = adjacency_matrix(graph)
    degree = np.diff(graph.indptr)
    key_dtype = np.int32 if nq * n <= np.iinfo(np.int32).max else np.int64
    visited = np.zeros(nq * n, dtype=bool)
    visited[np.arange(nq) * n + sources] = True
    indptr = np.arange(nq + 1, dtype=key_dtype)
    vertices = sources.astype(np.int32)
    levels = []
    while vertices.size:
        frontier = np.diff(indptr).astype(np.int64)
        edges = frontier_matrix(indptr, vertices, n) @ degree   # deg·F
        atomics = np.zeros(nq, dtype=np.int64) if count_unvisited else edges
        updated = np.zeros(nq, dtype=np.int64)
        reached = []
        for lo, hi in budget_ranges(np.minimum(edges, n),
                                   base.PAIR_BUDGET):
            block = frontier_matrix(indptr[lo:hi + 1] - indptr[lo],
                                    vertices[indptr[lo]:indptr[hi]], n)
            # Entry (q, t): query q's frontier edges into t.
            product = block @ adjacency
            rows = np.repeat(np.arange(lo, hi, dtype=key_dtype),
                             np.diff(product.indptr))
            keys = rows * n + product.indices
            fresh = ~visited[keys]
            visited[keys[fresh]] = True
            rows = rows[fresh]
            updated[lo:hi] = np.bincount(rows - lo, minlength=hi - lo)
            if count_unvisited:
                np.add.at(atomics, rows, product.data[fresh])
            reached.append(product.indices[fresh])
        levels.append(np.stack([frontier, edges, atomics, updated], axis=1))
        vertices = np.concatenate(reached)
        indptr = np.concatenate(([0], np.cumsum(updated))).astype(key_dtype)
    return np.stack(levels)


class _BfsBase(GraphWorkload):
    """Shared level-synchronous engine; subclasses set the mapping."""

    #: Topology-driven kernels scan the full vertex set every level.
    topological: bool = False
    #: "edge" → CAS per inspected edge; "unvisited" → CAS only on
    #: not-yet-visited targets (check-then-atomic mapping).
    atomic_mode: str = "unvisited"
    num_sources: int = 128

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return self.traverse(graph, sources)

    def traverse(
        self, graph: CSRGraph, sources: np.ndarray
    ) -> Iterator[EpochCounts]:
        """Epochs of one traversal per source, query-major."""
        kernel = partial(bfs_level_counts_batched, graph,
                         count_unvisited=self.atomic_mode != "edge")
        scanned = graph.num_vertices if self.topological else 0
        return query_block_epochs(kernel, sources, "level", scanned)

    def reference(self, graph: CSRGraph) -> np.ndarray:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return bfs_depths(graph, int(sources[0]))


class BfsTa(_BfsBase):
    """Topology-driven, atomic-per-edge (GraphBIG ``bfs_topo_atomic``)."""

    name = "bfs-ta"
    topological = True
    atomic_mode = "edge"
    coeffs = TrafficCoefficients(
        lines_per_edge=1.667,
        write_lines_per_edge=1.334,
        instrs_per_edge=14.0,
        divergence=0.40,
        read_hit_rate=0.45,
        atomic_coalescing=0.50,
    )


class BfsTtc(_BfsBase):
    """Topology-driven thread-centric: scattered reads, heavy divergence."""

    name = "bfs-ttc"
    topological = True
    atomic_mode = "edge"
    coeffs = TrafficCoefficients(
        lines_per_edge=1.053,
        write_lines_per_edge=0.764,
        instrs_per_edge=16.0,
        divergence=0.50,
        read_hit_rate=0.40,
        atomic_coalescing=0.351,
    )


class BfsTwc(_BfsBase):
    """Topology-driven warp-centric: coalesced reads, low divergence."""

    name = "bfs-twc"
    topological = True
    atomic_mode = "edge"
    coeffs = TrafficCoefficients(
        lines_per_edge=0.94,
        write_lines_per_edge=0.44,
        instrs_per_edge=10.0,
        divergence=0.05,
        read_hit_rate=0.50,
        atomic_coalescing=0.289,
    )


class BfsDwc(_BfsBase):
    """Data-driven warp-centric: frontier queue + coalesced expansion."""

    name = "bfs-dwc"
    topological = False
    atomic_mode = "edge"
    coeffs = TrafficCoefficients(
        lines_per_edge=0.94,
        write_lines_per_edge=0.44,
        instrs_per_edge=10.0,
        divergence=0.05,
        read_hit_rate=0.50,
        atomic_coalescing=0.289,
    )
