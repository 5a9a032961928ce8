"""Single-source shortest paths variants (GraphBIG GPU kernels).

Distance relaxations are atomicMin operations — PIM's CAS-greater/less
class (Table III). Variants:

- ``sssp-dtc`` — data-driven thread-centric: frontier of improved
  vertices, one thread per vertex, scattered reads and high divergence.
- ``sssp-dwc`` — data-driven warp-centric: same frontier schedule with
  warp-cooperative coalesced expansion.
- ``sssp-twc`` — topology-driven warp-centric: Bellman-Ford sweeps over
  every edge each iteration until no distance changes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads.base import EpochCounts, GraphWorkload, TrafficCoefficients
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


class _SsspDataDriven(GraphWorkload):
    """Frontier-based relaxation engine."""

    num_sources: int = 32

    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        if not graph.is_weighted:
            raise ValueError(f"{self.name} requires a weighted graph")
        sources = pick_sources(graph, self.num_sources, self.seed)
        mark = np.zeros(graph.num_vertices, dtype=bool)
        for q, source in enumerate(sources):
            dist = np.full(graph.num_vertices, np.inf)
            dist[int(source)] = 0.0
            frontier = np.array([int(source)], dtype=np.int64)
            it = 0
            while frontier.size:
                src, dst, w = graph.expand(frontier, with_weights=True)
                cand = dist[src] + w
                improved = cand < dist[dst]
                # Every inspected edge attempts an atomicMin on the target
                # distance (the kernel cannot know it won't improve until
                # the atomic resolves).
                atomics = int(dst.size)
                targets = dst[improved]
                np.minimum.at(dist, targets, cand[improved])
                # Hash-free dedupe: the sorted unique set, as np.unique
                # would give, read back from a mark bitmap.
                mark[targets] = True
                nxt = np.flatnonzero(mark)
                mark[nxt] = False
                yield EpochCounts(
                    label=f"q{q}-iter{it}",
                    frontier_vertices=int(frontier.size),
                    edges_inspected=int(dst.size),
                    atomics=atomics,
                    updated_vertices=int(nxt.size),
                )
                frontier = nxt
                it += 1

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
        n = graph.num_vertices
        # Every sweep walks the whole edge list: gather it once.
        src, dst, w = graph.expand(np.arange(n), with_weights=True)
        sources = pick_sources(graph, self.num_sources, self.seed)
        for q, source in enumerate(sources):
            dist = np.full(n, np.inf)
            dist[int(source)] = 0.0
            it = 0
            while True:
                dist_src = dist[src]
                finite = np.isfinite(dist_src)
                cand = dist_src[finite] + w[finite]
                tgt = dst[finite]
                improved = cand < dist[tgt]
                # Relaxations only issue for edges whose source has a
                # finite distance (the kernel checks before the atomic).
                atomics = int(finite.sum())
                changed = int(improved.sum())
                np.minimum.at(dist, tgt[improved], cand[improved])
                yield EpochCounts(
                    label=f"q{q}-sweep{it}",
                    frontier_vertices=n,
                    scanned_vertices=n,
                    edges_inspected=int(dst.size),
                    atomics=atomics,
                    updated_vertices=changed,
                )
                it += 1
                if changed == 0:
                    break

    def reference(self, graph: CSRGraph) -> np.ndarray:
        sources = pick_sources(graph, self.num_sources, self.seed)
        return sssp_distances(graph, int(sources[0]))
