"""CoolPimSystem facade on tiny graphs."""

import pytest

from repro.core import CoolPimSystem
from repro.graph import get_dataset
from repro.workloads import get_workload
from repro.workloads.trace_store import TraceStore, get_trace_store


@pytest.fixture(scope="module")
def system():
    return CoolPimSystem()


@pytest.fixture(scope="module")
def graph():
    return get_dataset("ldbc-tiny")


class TestRun:
    def test_run_by_policy_name(self, system, graph):
        res = system.run(get_workload("pagerank"), graph, "non-offloading")
        assert res.policy == "non-offloading"
        assert res.workload == "pagerank"
        assert res.runtime_s > 0

    def test_run_with_policy_instance(self, system, graph):
        from repro.core.policies import NaiveOffloading

        res = system.run(get_workload("dc"), graph, NaiveOffloading())
        assert res.policy == "naive-offloading"

    def test_launch_cache_reuses_trace(self, system, graph):
        w = get_workload("dc")
        r1 = system.run(w, graph, "non-offloading")
        r2 = system.run(w, graph, "non-offloading")
        assert r1.runtime_s == pytest.approx(r2.runtime_s)
        # Both runs replayed the stored trace: same batch objects, each
        # through a cursor of its own.
        store = get_trace_store()
        a, b = store.launch(w, graph), store.launch(w, graph)
        assert a.trace is not b.trace
        assert all(x is y for x, y in zip(a.trace, b.trace))

    def test_launch_cache_tells_rescaled_workloads_apart(self, graph):
        """A workload whose run length was rescaled gets its own trace."""
        from repro.experiments.common import apply_workload_scale

        store = TraceStore()
        full = store.launch(get_workload("bfs-dwc"), graph)
        quarter = apply_workload_scale(get_workload("bfs-dwc"), 0.25)
        scaled = store.launch(quarter, graph)
        assert len(scaled.trace) == len(quarter.launch(graph).trace)
        assert len(scaled.trace) < len(full.trace)
        again = store.launch(get_workload("bfs-dwc"), graph)
        assert list(again.trace) == list(full.trace)
        assert all(x is y for x, y in zip(again.trace, full.trace))

    def test_launch_cache_holds_its_graph(self):
        """A graph built after an earlier one was dropped — CPython hands
        it the freed object's address, hence its ``id`` — must not be
        served the earlier graph's trace."""
        import numpy as np

        from repro.graph.csr import CSRGraph

        store = TraceStore()
        ring = CSRGraph(np.arange(9), (np.arange(8) + 1) % 8)
        store.launch(get_workload("bfs-dwc"), ring)
        del ring
        path = CSRGraph(np.array([0, 1, 2, 3, 4, 5, 6, 7, 7]), np.arange(1, 8))
        launch = store.launch(get_workload("bfs-dwc"), path)
        assert len(launch.trace) == len(
            get_workload("bfs-dwc").launch(path).trace)

    def test_run_all_policies_keys(self, system, graph):
        res = system.run_all_policies(get_workload("kcore"), graph)
        assert set(res) == {
            "non-offloading", "naive-offloading", "coolpim-sw",
            "coolpim-hw", "ideal-thermal",
        }

    def test_policy_subset(self, system, graph):
        res = system.run_all_policies(
            get_workload("kcore"), graph,
            policies=["non-offloading", "ideal-thermal"],
        )
        assert list(res) == ["non-offloading", "ideal-thermal"]

    def test_offloading_ordering_invariant(self, system, graph):
        """Ideal >= CoolPIM >= non-offloading on a cool (tiny) run."""
        res = system.run_all_policies(get_workload("pagerank"), graph)
        base = res["non-offloading"]
        su_ideal = res["ideal-thermal"].speedup_over(base)
        su_hw = res["coolpim-hw"].speedup_over(base)
        assert su_ideal >= su_hw >= 0.99
