"""Single-source shortest paths variants (GraphBIG GPU kernels).

Distance relaxations are atomicMin operations — PIM's CAS-greater/less
class (Table III). Variants:

- ``sssp-dtc`` — data-driven thread-centric: frontier of improved
  vertices, one thread per vertex, scattered reads and high divergence.
- ``sssp-dwc`` — data-driven warp-centric: same frontier schedule with
  warp-cooperative coalesced expansion.
- ``sssp-twc`` — topology-driven warp-centric: Bellman-Ford sweeps over
  every edge each iteration until no distance changes.

Trace kernels. A data-driven level reads only level-start distances:
candidates are ``dist_start[u] + w`` elementwise and ``min`` is exact in
any order, so the queries of a run relax together over flat
``(query, vertex)`` distance arrays (:func:`sssp_level_counts_batched`).
Bellman-Ford keeps per-query sweeps (:func:`sssp_sweep_counts`). Either
way a run's sources are split into query blocks, one per CPU, that run
concurrently (:func:`~repro.workloads.base.query_block_epochs`).
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads import base
from repro.workloads.base import (
    EpochCounts,
    GraphWorkload,
    TrafficCoefficients,
    budget_ranges,
    query_block_epochs,
)
from repro.workloads.bfs import pick_sources


def sssp_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference shortest-path distances (Bellman-Ford, vectorized)."""
    if not graph.is_weighted:
        raise ValueError("SSSP requires a weighted graph")
    dist = np.full(graph.num_vertices, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        src, dst, w = graph.expand(frontier, with_weights=True)
        cand = dist[src] + w
        improved = cand < dist[dst]
        if not improved.any():
            break
        # atomicMin semantics: keep the minimum candidate per target.
        np.minimum.at(dist, dst[improved], cand[improved])
        frontier = np.unique(dst[improved])
    return dist


def sssp_level_counts_batched(
    graph: CSRGraph, sources: np.ndarray
) -> np.ndarray:
    """Per-level relaxation counts of every query, advanced together.

    Queries relax in groups whose flat distance arrays hold at most
    :data:`~repro.workloads.base.PAIR_BUDGET` ``(query, vertex)`` keys
    (see :func:`_group_level_counts`), which keeps a block's peak memory
    near the per-source loop's on graphs with many vertices.

    Returns int64 ``[level, query, (frontier, edges, atomics, updated)]``;
    a query's rows are zero from the level after its last one. Every
    inspected edge issues an atomicMin, so atomics equal edges.
    """
    group = max(1, base.PAIR_BUDGET // max(graph.num_vertices, 1))
    parts = [_group_level_counts(graph, sources[lo:lo + group])
             for lo in range(0, sources.size, group)]
    depth = max(part.shape[0] for part in parts)
    return np.concatenate(
        [np.pad(part, ((0, depth - part.shape[0]), (0, 0), (0, 0)))
         for part in parts],
        axis=1,
    )


def _group_level_counts(
    graph: CSRGraph, sources: np.ndarray
) -> np.ndarray:
    """:func:`sssp_level_counts_batched` for one group of queries.

    The queries share one flat distance array keyed ``(query, vertex)``
    → ``query·n + vertex``. A level's candidates are ``dist_start[u] + w``
    over its frontier's out-edges, with ``dist_start`` the frontier's
    distances gathered once at the level start, so the level can relax in
    chunks of at most :data:`~repro.workloads.base.PAIR_BUDGET` edges:
    ``np.minimum.at`` and the mark bitmap reach the same minima and marks
    in any chunk order. The next frontier is the marked keys, sorted —
    per query the set ``np.unique`` gives over its improved targets.
    """
    n = graph.num_vertices
    nq = sources.size
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    degree = np.diff(indptr)
    dist = np.full(nq * n, np.inf)
    mark = np.zeros(nq * n, dtype=bool)
    bounds = np.arange(nq + 1, dtype=np.int64) * n
    keys = bounds[:-1] + sources
    dist[keys] = 0.0
    levels = []
    while keys.size:
        vertices = keys % n
        base_keys = keys - vertices
        start = dist[keys]
        deg = degree[vertices]
        qptr = np.searchsorted(keys, bounds)
        frontier = np.diff(qptr)
        edge_ends = np.concatenate(([0], np.cumsum(deg)))
        edges = edge_ends[qptr[1:]] - edge_ends[qptr[:-1]]
        for lo, hi in budget_ranges(deg, base.PAIR_BUDGET):
            counts = deg[lo:hi]
            # Edge positions: a contiguous run from indptr[u] per vertex.
            positions = np.arange(int(edge_ends[hi] - edge_ends[lo]))
            positions += np.repeat(
                indptr[vertices[lo:hi]] - (edge_ends[lo:hi] - edge_ends[lo]),
                counts,
            )
            targets = indices[positions]
            targets += np.repeat(base_keys[lo:hi], counts)
            cand = weights[positions]
            cand += np.repeat(start[lo:hi], counts)
            improved = cand < dist[targets]
            targets = targets[improved]
            np.minimum.at(dist, targets, cand[improved])
            mark[targets] = True
        # Marks fall inside the slabs of the queries still running.
        lo_key, hi_key = base_keys[0], base_keys[-1] + n
        keys = np.flatnonzero(mark[lo_key:hi_key]) + lo_key
        mark[keys] = False
        levels.append(np.stack(
            [frontier, edges, edges, np.diff(np.searchsorted(keys, bounds))],
            axis=1,
        ))
    return np.stack(levels)


def sssp_sweep_counts(
    graph: CSRGraph, edges: tuple, sources: np.ndarray
) -> np.ndarray:
    """Per-sweep Bellman-Ford counts of each query, one query at a time.

    ``edges`` is the run's full ``(src, dst, weight)`` edge list. A sweep
    relaxes it in chunks of at most :data:`~repro.workloads.base.PAIR_BUDGET`
    edges; candidates and their comparisons read a sweep-start snapshot,
    so the improved-edge count and the minima do not depend on the
    chunking.

    Returns int64 ``[sweep, query, (frontier, edges, atomics, updated)]``
    with frontier = ``n`` for every sweep a query runs and zero rows
    after its last one.
    """
    n = graph.num_vertices
    src, dst, w = edges
    m = src.size
    chunks = [slice(lo, lo + base.PAIR_BUDGET)
              for lo in range(0, m, base.PAIR_BUDGET)]
    per_query = []
    for source in sources:
        dist = np.full(n, np.inf)
        dist[int(source)] = 0.0
        sweeps = []
        while True:
            start = dist.copy()
            atomics = changed = 0
            for chunk in chunks:
                # An infinite source distance gives an infinite candidate,
                # which never improves; relaxations only issue for finite
                # ones (the kernel checks before the atomic).
                cand = start[src[chunk]]
                atomics += int(np.count_nonzero(cand < np.inf))
                cand += w[chunk]
                tgt = dst[chunk]
                improved = cand < start[tgt]
                changed += int(np.count_nonzero(improved))
                np.minimum.at(dist, tgt[improved], cand[improved])
            sweeps.append((n, m, atomics, changed))
            if changed == 0:
                break
        per_query.append(sweeps)
    counts = np.zeros((max(map(len, per_query)), len(per_query), 4),
                      dtype=np.int64)
    for q, sweeps in enumerate(per_query):
        counts[:len(sweeps), q] = sweeps
    return counts


class _SsspDataDriven(GraphWorkload):
    """Frontier-based relaxation engine."""

    num_sources: int = 32

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        if not graph.is_weighted:
            raise ValueError(f"{self.name} requires a weighted graph")
        sources = pick_sources(graph, self.num_sources, self.seed)
        return self.traverse(graph, sources)

    def traverse(
        self, graph: CSRGraph, sources: np.ndarray
    ) -> Iterator[EpochCounts]:
        """Epochs of one relaxation run per source, query-major."""
        kernel = partial(sssp_level_counts_batched, graph)
        return query_block_epochs(kernel, sources, "iter")

    def reference(self, graph: CSRGraph) -> np.ndarray:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return sssp_distances(graph, int(sources[0]))


class SsspDtc(_SsspDataDriven):
    """Data-driven thread-centric: scattered, divergent, read-heavy.

    The heavy per-edge read traffic dilutes atomics — this is one of the
    two benchmarks whose naïve PIM rate stays under the thermal threshold
    (Sec. V-B: kcore and sssp-dtc trigger no thermal issue).
    """

    name = "sssp-dtc"
    coeffs = TrafficCoefficients(
        lines_per_edge=3.40,
        instrs_per_edge=18.0,
        divergence=0.50,
        read_hit_rate=0.35,
        atomic_coalescing=0.55,
        return_fraction=0.3,
    )


class SsspDwc(_SsspDataDriven):
    """Data-driven warp-centric: coalesced expansion."""

    name = "sssp-dwc"
    coeffs = TrafficCoefficients(
        lines_per_edge=1.036,
        write_lines_per_edge=0.790,
        instrs_per_edge=12.0,
        divergence=0.08,
        read_hit_rate=0.45,
        atomic_coalescing=0.351,
        return_fraction=0.3,
    )


class SsspTwc(GraphWorkload):
    """Topology-driven warp-centric Bellman-Ford sweeps."""

    name = "sssp-twc"
    num_sources: int = 12
    coeffs = TrafficCoefficients(
        lines_per_edge=1.080,
        write_lines_per_edge=0.838,
        instrs_per_edge=12.0,
        divergence=0.08,
        read_hit_rate=0.45,
        atomic_coalescing=0.35,
        return_fraction=0.3,
    )

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        if not graph.is_weighted:
            raise ValueError(f"{self.name} requires a weighted graph")
        sources = pick_sources(graph, self.num_sources, self.seed)
        return self.traverse(graph, sources)

    def traverse(
        self, graph: CSRGraph, sources: np.ndarray
    ) -> Iterator[EpochCounts]:
        """Epochs of one Bellman-Ford run per source, query-major."""
        n = graph.num_vertices
        # Every sweep walks the whole edge list: gather it once per run,
        # shared by all query blocks.
        edges = graph.expand(np.arange(n), with_weights=True)
        kernel = partial(sssp_sweep_counts, graph, edges)
        return query_block_epochs(kernel, sources, "sweep", scanned=n)

    def reference(self, graph: CSRGraph) -> np.ndarray:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return sssp_distances(graph, int(sources[0]))
