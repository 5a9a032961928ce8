"""Dataset registry."""

import sys
import threading
import time

import pytest

import repro.graph.datasets as datasets
from repro.graph.datasets import clear_cache, get_dataset, list_datasets
from repro.graph.generators import grid_graph


class TestDatasets:
    def test_listing_contains_evaluation_graph(self):
        names = list_datasets()
        assert "ldbc" in names and "ldbc-tiny" in names

    def test_instances_are_cached(self):
        clear_cache()
        a = get_dataset("ldbc-tiny")
        b = get_dataset("ldbc-tiny")
        assert a is b

    def test_clear_cache_rebuilds(self):
        a = get_dataset("ldbc-tiny")
        clear_cache()
        b = get_dataset("ldbc-tiny")
        assert a is not b
        assert a.num_edges == b.num_edges  # deterministic regeneration

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError) as exc:
            get_dataset("nope")
        assert "ldbc" in str(exc.value)

    def test_tiny_graphs_are_weighted(self):
        assert get_dataset("ldbc-tiny").is_weighted
        assert get_dataset("grid-8x8").is_weighted


class TestSingleFlight:
    """Concurrent cold requests (two API workers starting together) must
    build a dataset once and share the instance."""

    @pytest.fixture
    def slow_registry(self, monkeypatch):
        builds = []

        def builder(name):
            def build():
                start = time.perf_counter()
                time.sleep(0.05)
                builds.append((name, start, time.perf_counter()))
                return grid_graph(4, 4)
            return build

        for name in ("slow-a", "slow-b"):
            monkeypatch.setitem(datasets._REGISTRY, name, builder(name))
        yield builds
        for name in ("slow-a", "slow-b"):
            datasets._CACHE.pop(name, None)

    def _race(self, names):
        barrier = threading.Barrier(len(names), timeout=10)
        got = [None] * len(names)

        def worker(i, name):
            barrier.wait()
            got[i] = get_dataset(name)

        threads = [threading.Thread(target=worker, args=(i, name))
                   for i, name in enumerate(names)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return got

    def test_concurrent_cold_requests_build_once(self, slow_registry):
        got = self._race(["slow-a"] * 8)
        assert [b[0] for b in slow_registry] == ["slow-a"]
        assert all(g is got[0] for g in got)

    def test_distinct_names_build_concurrently(self, slow_registry):
        got = self._race(["slow-a", "slow-b"] * 4)
        assert sorted(b[0] for b in slow_registry) == ["slow-a", "slow-b"]
        assert got[0] is not got[1]
        (_, start_a, end_a), (_, start_b, end_b) = slow_registry
        assert start_a < end_b and start_b < end_a, "builds were serialized"
