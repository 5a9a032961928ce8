"""Trace kernels against the per-source oracle (tests/workloads/oracle.py).

The batched BFS and SSSP kernels and the chunked Bellman-Ford sweeps must
emit exactly the oracle's :class:`EpochCounts` — same order, same labels,
same counts — on the test datasets, on scaled-down runs, under every
split of a run's sources into query blocks, and on random graphs with
the awkward shapes (isolated vertices, self-loops, sources without
out-edges, several components, tied weights).
"""

import multiprocessing
import os
import queue
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.workloads.base as base
import repro.workloads.bfs as bfs
from repro.experiments.common import apply_workload_scale
from repro.graph import get_dataset
from repro.graph.csr import CSRGraph
from repro.workloads import get_workload
from tests.workloads.oracle import oracle_epochs

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
    monkeypatch.setattr(base, "PAIR_BUDGET", 1)
    blocked = bfs.bfs_level_counts_batched(graph, sources, True)
    assert np.array_equal(whole, blocked)


@pytest.mark.parametrize("name, dataset", [
    ("sssp-dtc", "ldbc-small"), ("sssp-dtc", "road-small"),
    # Edge-by-edge sweeps over a whole edge list: keep the graph tiny.
    ("sssp-twc", "ldbc-tiny"),
])
def test_one_edge_chunks_match_oracle(monkeypatch, name, dataset):
    """With a budget of one, every SSSP level (and every Bellman-Ford
    sweep) relaxes edge by edge; candidates read level-start distances,
    so the marks, minima and counts stay the oracle's."""
    graph = get_dataset(dataset)
    workload = apply_workload_scale(get_workload(name, seed=1), 0.25)
    monkeypatch.setattr(base, "PAIR_BUDGET", 1)
    assert list(workload.epochs(graph)) == oracle_epochs(workload, graph)


def test_budget_ranges_respect_budget():
    pairs = np.array([3, 0, 5, 9, 1, 1, 2])
    blocks = list(base.budget_ranges(pairs, 6))
    assert blocks[0][0] == 0 and blocks[-1][1] == pairs.size
    for (_, hi), (lo, _) in zip(blocks, blocks[1:]):
        assert hi == lo
    for lo, hi in blocks:
        assert hi - lo == 1 or pairs[lo:hi].sum() <= 6


# -- query blocks --------------------------------------------------------------

def _two_uneven(sources):
    cut = max(1, sources.size // 5)
    return [sources[:cut], sources[cut:]] if sources.size > 1 else [sources]


def _three_blocks(sources):
    if sources.size < 3:
        return [sources]
    return [sources[:1], sources[1:3], sources[3:]]


SPLITS = {
    "one-block": lambda s: [s],
    "two-uneven": _two_uneven,
    "query-per-block": lambda s: np.split(s, s.size),
}


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("dataset", ["ldbc-small", "road-small"])
@pytest.mark.parametrize("name", TRAVERSALS)
def test_block_split_cannot_change_a_trace(monkeypatch, name, dataset, split):
    graph = get_dataset(dataset)
    workload = apply_workload_scale(get_workload(name, seed=3), 0.25)
    monkeypatch.setattr(base, "query_blocks", SPLITS[split])
    assert list(workload.epochs(graph)) == oracle_epochs(workload, graph)


def test_query_blocks_cover_sources_in_order():
    sources = np.array([5, 3, 9, 3, 1, 0, 7])
    blocks = base.query_blocks(sources)
    assert 1 <= len(blocks) <= min(base._usable_cpus(), sources.size)
    assert all(b.size for b in blocks)
    assert np.array_equal(np.concatenate(blocks), sources)
    assert len(base.query_blocks(sources[:1])) == 1


def test_failing_block_raises_after_every_block_finishes():
    finished = []

    def kernel(block):
        if block[0] == 0:
            raise RuntimeError("block 0 failed")
        finished.append(int(block[0]))
        return np.zeros((1, block.size, 4), dtype=np.int64)

    with pytest.raises(RuntimeError, match="block 0 failed"):
        base.run_query_blocks(kernel, [np.array([0]), np.array([1]),
                                       np.array([2])])
    assert sorted(finished) == [1, 2]


def test_concurrent_callers_share_the_block_pool(monkeypatch):
    """More trace builders than cores, all feeding the one block pool
    with fast thread switching: every trace still equals the oracle."""
    monkeypatch.setattr(base, "query_blocks", _three_blocks)
    graph = get_dataset("ldbc-tiny")
    names = ["bfs-ta", "sssp-dwc", "sssp-twc"] * 2
    expected = {name: oracle_epochs(get_workload(name, seed=5), graph)
                for name in set(names)}
    got = [None] * len(names)

    def build(i):
        got[i] = list(get_workload(names[i], seed=5).epochs(graph))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(len(names))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [expected[name] for name in names]


def _child_blocks(out):
    out.put(len(base.query_blocks(np.arange(8))))


def _child_trace(out):
    graph = get_dataset("ldbc-tiny")
    out.put(list(get_workload("sssp-dwc", seed=2).epochs(graph)))


def _run_in_fork(target):
    """``target``'s one result from a fork-context child, within a
    timeout; the child is killed if it hangs."""
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=target, args=(out,))
    child.start()
    try:
        return out.get(timeout=60)
    except queue.Empty:
        pytest.fail(f"{target.__name__} hung in a forked child")
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
        assert not child.is_alive()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_scheduler_workers_run_one_block():
    """A child process (a scheduler pool worker) leaves the cores to its
    siblings: one block, on its own thread."""
    assert _run_in_fork(_child_blocks) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_a_fresh_block_pool(monkeypatch):
    """After the parent has run blocks on its pool, a forked child (which
    has none of the parent's pool threads) still builds the same trace."""
    monkeypatch.setattr(base, "query_blocks", _three_blocks)
    graph = get_dataset("ldbc-tiny")
    expected = list(get_workload("sssp-dwc", seed=2).epochs(graph))
    assert expected == oracle_epochs(get_workload("sssp-dwc", seed=2), graph)
    assert _run_in_fork(_child_trace) == expected


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
    """Any source list — vertices without out-edges, repeats — through
    every traversal kernel, BFS in both atomic modes."""
    sources = np.array(data.draw(st.lists(
        st.integers(0, graph.num_vertices - 1), min_size=1, max_size=12,
    )), dtype=np.int64)
    workloads = [get_workload(name) for name in TRAVERSALS]
    for workload in workloads + [_BfsUnvisited()]:
        assert list(workload.traverse(graph, sources)) == oracle_epochs(
            workload, graph, sources), workload.name


def test_repeated_sources_repeat_their_traversal():
    graph = get_dataset("ldbc-tiny")
    source = int(bfs.pick_sources(graph, 1, seed=0)[0])
    for name in TRAVERSALS:
        once = list(get_workload(name).traverse(graph, np.array([source])))
        twice = list(get_workload(name).traverse(
            graph, np.array([source, source])))
        assert [c.label for c in twice[len(once):]] == [
            c.label.replace("q0-", "q1-", 1) for c in once]
        assert [c.edges_inspected for c in twice[len(once):]] == [
            c.edges_inspected for c in once]
