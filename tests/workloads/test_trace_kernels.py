"""Trace kernels against the per-source oracle (tests/workloads/oracle.py).

The batched BFS kernel and the hash-free SSSP kernels must emit exactly
the oracle's :class:`EpochCounts` — same order, same labels, same counts
— on the test datasets, on scaled-down runs, and on random graphs with
the awkward shapes (isolated vertices, self-loops, sources without
out-edges, several components, tied weights).
"""

import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.workloads.bfs as bfs
from repro.experiments.common import apply_workload_scale
from repro.graph import get_dataset
from repro.graph.csr import CSRGraph
from repro.workloads import get_workload
from tests.workloads.oracle import bfs_epochs, oracle_epochs

TRAVERSALS = ["bfs-ta", "bfs-dwc", "bfs-ttc", "bfs-twc", "sssp-dtc",
              "sssp-dwc", "sssp-twc"]


@pytest.mark.parametrize("scale", [1.0, 0.25])
@pytest.mark.parametrize("dataset", ["ldbc-tiny", "ldbc-small", "road-small"])
@pytest.mark.parametrize("name", TRAVERSALS)
def test_epochs_match_oracle(name, dataset, scale):
    graph = get_dataset(dataset)
    workload = apply_workload_scale(get_workload(name, seed=0), scale)
    assert list(workload.epochs(graph)) == oracle_epochs(workload, graph)


class _BfsUnvisited(bfs._BfsBase):
    """Check-then-atomic mapping: atomics only on unvisited targets."""

    name = "bfs-unvisited"
    atomic_mode = "unvisited"


@pytest.mark.parametrize("num_sources", [1, 7, 64])
@pytest.mark.parametrize("dataset", ["ldbc-tiny", "road-small"])
def test_unvisited_atomic_mode_matches_oracle(dataset, num_sources):
    graph = get_dataset(dataset)
    workload = _BfsUnvisited(seed=2)
    workload.num_sources = num_sources
    got = list(workload.epochs(graph))
    assert got == oracle_epochs(workload, graph)
    assert any(c.atomics < c.edges_inspected for c in got)


def test_pair_budget_blocks_agree_with_one_product(monkeypatch):
    """Splitting a level into many query blocks changes nothing."""
    graph = get_dataset("ldbc-small")
    sources = bfs.pick_sources(graph, 32, seed=4)
    whole = bfs.bfs_level_counts_batched(graph, sources, True)
    monkeypatch.setattr(bfs, "PAIR_BUDGET", 1)
    blocked = bfs.bfs_level_counts_batched(graph, sources, True)
    assert np.array_equal(whole, blocked)


def test_query_blocks_respect_budget():
    pairs = np.array([3, 0, 5, 9, 1, 1, 2])
    blocks = list(bfs._query_blocks(pairs, 6))
    assert blocks[0][0] == 0 and blocks[-1][1] == pairs.size
    for (_, hi), (lo, _) in zip(blocks, blocks[1:]):
        assert hi == lo
    for lo, hi in blocks:
        assert hi - lo == 1 or pairs[lo:hi].sum() <= 6


class TestExactness:
    """Counts stay in integer dtypes end to end (float32 would be exact
    only below 2^24)."""

    def test_product_operand_and_result_dtypes(self):
        graph = get_dataset("ldbc-tiny")
        adjacency = bfs.adjacency_matrix(graph)
        sources = bfs.pick_sources(graph, 4, seed=0).astype(np.int32)
        frontier = bfs.frontier_matrix(
            np.arange(sources.size + 1, dtype=np.int32), sources,
            graph.num_vertices,
        )
        assert adjacency.dtype == np.int32
        assert frontier.dtype == np.int32
        product = frontier @ adjacency
        assert product.dtype == np.int32
        assert product.indices.dtype == np.int32
        edges = frontier @ np.diff(graph.indptr)
        assert edges.dtype == np.int64
        # Row sums of the product are the frontier's out-edges.
        assert np.array_equal(np.asarray(product.sum(axis=1)).ravel(), edges)

    def test_level_counts_are_int64(self):
        graph = get_dataset("ldbc-tiny")
        sources = bfs.pick_sources(graph, 16, seed=0)
        assert bfs.bfs_level_counts_batched(graph, sources, True).dtype \
            == np.int64

    def test_epoch_counts_are_python_ints(self):
        counts = next(iter(get_workload("bfs-ta").epochs(
            get_dataset("ldbc-tiny"))))
        for field in ("frontier_vertices", "edges_inspected", "atomics",
                      "updated_vertices"):
            assert type(getattr(counts, field)) is int

    def test_adjacency_refuses_edge_counts_beyond_int32(self):
        huge = types.SimpleNamespace(num_edges=2 ** 31)
        with pytest.raises(OverflowError):
            bfs.adjacency_matrix(huge)


@st.composite
def awkward_graphs(draw):
    """Weighted random graphs: some vertices isolated, self-loops and
    parallel edges allowed, two disjoint parts, weights from a tiny set so
    path lengths tie."""
    parts = []
    offset = 0
    for _ in range(2):
        n = draw(st.integers(min_value=1, max_value=24))
        m = draw(st.integers(min_value=0, max_value=3 * n))
        src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        parts.append((n, offset, src, dst))
        offset += n
    isolated = draw(st.integers(min_value=0, max_value=4))
    num_vertices = offset + isolated
    src = np.array([s + o for _, o, ss, _ in parts for s in ss], dtype=np.int64)
    dst = np.array([d + o for _, o, _, ds in parts for d in ds], dtype=np.int64)
    weights = np.array(
        draw(st.lists(st.sampled_from([1.0, 2.0, 0.5]), min_size=src.size,
                      max_size=src.size)),
        dtype=np.float64,
    )
    dedup = draw(st.booleans())
    return CSRGraph.from_edges(num_vertices, src, dst, weights, dedup=dedup)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=awkward_graphs(), num_sources=st.integers(1, 20),
       seed=st.integers(0, 5))
def test_random_graphs_match_oracle(graph, num_sources, seed):
    for name in TRAVERSALS:
        workload = get_workload(name, seed=seed)
        workload.num_sources = num_sources
        assert list(workload.epochs(graph)) == oracle_epochs(workload, graph)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=awkward_graphs(), data=st.data())
def test_arbitrary_sources_match_oracle(graph, data):
    """Any source list — vertices without out-edges, repeats — in both
    atomic modes."""
    sources = np.array(data.draw(st.lists(
        st.integers(0, graph.num_vertices - 1), min_size=1, max_size=12,
    )), dtype=np.int64)
    for workload in (get_workload("bfs-ta"), _BfsUnvisited()):
        assert list(workload.traverse(graph, sources)) == bfs_epochs(
            workload, graph, sources)
