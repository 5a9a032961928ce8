"""Reference trace kernels: one traversal at a time, deduped by np.unique.

These are the straightforward per-source loops the production kernels in
:mod:`repro.workloads.bfs` and :mod:`repro.workloads.sssp` replace: no
batching across queries, no query blocks, no chunking. They
define the contract: every production kernel must emit exactly the
:class:`EpochCounts` these do, in the same order, with the same labels.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.workloads.base import EpochCounts, GraphWorkload
from repro.workloads.bfs import _BfsBase, pick_sources
from repro.workloads.sssp import SsspTwc, _SsspDataDriven


def bfs_epochs(
    workload: _BfsBase, graph: CSRGraph, sources: Optional[np.ndarray] = None
) -> List[EpochCounts]:
    out = []
    if sources is None:
        sources = pick_sources(graph, workload.num_sources, workload.seed)
    for query, source in enumerate(sources):
        depth = np.full(graph.num_vertices, -1, dtype=np.int64)
        depth[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            _, targets, _ = graph.expand(frontier)
            edges = int(targets.size)
            unvisited_mask = depth[targets] == -1
            if workload.atomic_mode == "edge":
                atomics = edges
            else:
                atomics = int(unvisited_mask.sum())
            next_frontier = np.unique(targets[unvisited_mask])
            depth[next_frontier] = level + 1
            scanned = graph.num_vertices if workload.topological else 0
            out.append(EpochCounts(
                label=f"q{query}-level{level}",
                frontier_vertices=int(frontier.size),
                scanned_vertices=scanned,
                edges_inspected=edges,
                atomics=atomics,
                updated_vertices=int(next_frontier.size),
            ))
            frontier = next_frontier
            level += 1
    return out


def sssp_data_driven_epochs(
    workload: _SsspDataDriven, graph: CSRGraph,
    sources: Optional[np.ndarray] = None,
) -> List[EpochCounts]:
    out = []
    if sources is None:
        sources = pick_sources(graph, workload.num_sources, workload.seed)
    for q, source in enumerate(sources):
        dist = np.full(graph.num_vertices, np.inf)
        dist[int(source)] = 0.0
        frontier = np.array([int(source)], dtype=np.int64)
        it = 0
        while frontier.size:
            src, dst, w = graph.expand(frontier, with_weights=True)
            cand = dist[src] + w
            improved = cand < dist[dst]
            np.minimum.at(dist, dst[improved], cand[improved])
            nxt = np.unique(dst[improved])
            out.append(EpochCounts(
                label=f"q{q}-iter{it}",
                frontier_vertices=int(frontier.size),
                edges_inspected=int(dst.size),
                atomics=int(dst.size),
                updated_vertices=int(nxt.size),
            ))
            frontier = nxt
            it += 1
    return out


def sssp_twc_epochs(
    workload: SsspTwc, graph: CSRGraph, sources: Optional[np.ndarray] = None
) -> List[EpochCounts]:
    out = []
    n = graph.num_vertices
    all_vertices = np.arange(n, dtype=np.int64)
    if sources is None:
        sources = pick_sources(graph, workload.num_sources, workload.seed)
    for q, source in enumerate(sources):
        dist = np.full(n, np.inf)
        dist[int(source)] = 0.0
        it = 0
        while True:
            src, dst, w = graph.expand(all_vertices, with_weights=True)
            finite = np.isfinite(dist[src])
            cand = dist[src[finite]] + w[finite]
            tgt = dst[finite]
            improved = cand < dist[tgt]
            changed = int(improved.sum())
            np.minimum.at(dist, tgt[improved], cand[improved])
            out.append(EpochCounts(
                label=f"q{q}-sweep{it}",
                frontier_vertices=n,
                scanned_vertices=n,
                edges_inspected=int(dst.size),
                atomics=int(finite.sum()),
                updated_vertices=changed,
            ))
            it += 1
            if changed == 0:
                break
    return out


def oracle_epochs(
    workload: GraphWorkload, graph: CSRGraph,
    sources: Optional[np.ndarray] = None,
) -> List[EpochCounts]:
    """The reference epoch list of any traversal workload (over the
    workload's own sources unless ``sources`` are given)."""
    if isinstance(workload, _BfsBase):
        return bfs_epochs(workload, graph, sources)
    if isinstance(workload, _SsspDataDriven):
        return sssp_data_driven_epochs(workload, graph, sources)
    if isinstance(workload, SsspTwc):
        return sssp_twc_epochs(workload, graph, sources)
    raise TypeError(f"no oracle for {workload.name}")
