"""Content-addressed trace store: keys, single flight, LRU, disk tier.

The store's contract is that it never serves a wrong trace: every key
field that changes the trace separates entries, concurrent runs get
independent cursors, and every disk-tier failure (truncation, bit flips,
a stale code fingerprint, a writer killed mid-write) is a miss that
regenerates.
"""

import os
import threading

import numpy as np
import pytest

from repro.core import CoolPimSystem
from repro.experiments.common import apply_workload_scale
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.graph import get_dataset
from repro.graph.csr import CSRGraph
from repro.workloads import get_workload
from repro.workloads import trace_store
from repro.workloads.trace_store import (
    StoredTrace,
    TraceDir,
    TraceStore,
    disk_tier,
    get_trace_store,
    trace_key,
)


@pytest.fixture(scope="module")
def graph():
    return get_dataset("ldbc-tiny")


def counted(workload, calls, delay_s=0.0):
    """``workload`` with ``launch`` wrapped to record each generation."""
    original = workload.launch

    def launch(graph, gpu=GPU_DEFAULT):
        calls.append(workload.name)
        if delay_s:
            threading.Event().wait(delay_s)
        return original(graph, gpu)

    workload.launch = launch
    return workload


def batches(launch):
    return list(launch.trace)


class TestKey:
    def test_separates_every_trace_input(self, graph):
        base = trace_key(get_workload("bfs-ta", seed=0), graph, GPU_DEFAULT)
        reseeded = trace_key(
            get_workload("bfs-ta", seed=1), graph, GPU_DEFAULT)
        rescaled = trace_key(
            apply_workload_scale(get_workload("bfs-ta"), 0.25), graph,
            GPU_DEFAULT)
        other_gpu = trace_key(
            get_workload("bfs-ta"), graph, GpuConfig(num_sms=8))
        other_kind = trace_key(get_workload("bfs-dwc"), graph, GPU_DEFAULT)
        keys = [base, reseeded, rescaled, other_gpu, other_kind]
        assert len(set(keys)) == len(keys)
        assert trace_key(get_workload("bfs-ta"), graph, GPU_DEFAULT) == base

    def test_same_shape_different_content(self):
        # Two 8-vertex, 8-edge graphs: a ring and a ring with one edge
        # redirected. Same shape, different traces.
        ring = CSRGraph(np.arange(9), (np.arange(8) + 1) % 8)
        bent = CSRGraph(np.arange(9), np.array([1, 2, 3, 4, 5, 6, 7, 3]))
        twin = CSRGraph(np.arange(9), (np.arange(8) + 1) % 8)
        wl = get_workload("bfs-ta")
        assert trace_key(wl, ring, GPU_DEFAULT) != trace_key(
            wl, bent, GPU_DEFAULT)
        assert trace_key(wl, ring, GPU_DEFAULT) == trace_key(
            wl, twin, GPU_DEFAULT)
        store = TraceStore()
        for g in (ring, bent):
            assert batches(store.launch(wl, g)) == batches(wl.launch(g))

    def test_gpu_config_reaches_the_launch(self, graph):
        gpu = GpuConfig(num_sms=8, threads_per_block=512)
        store = TraceStore()
        launch = store.launch(get_workload("dc"), graph, gpu)
        assert launch.config == gpu
        assert launch.total_threads == get_workload("dc").launch(
            graph, gpu).total_threads


class TestMemoryTier:
    def test_cold_miss_from_two_threads_generates_once(self, graph):
        store = TraceStore()
        calls = []
        barrier = threading.Barrier(2)
        got = [None, None]

        def worker(i):
            wl = counted(get_workload("bfs-dwc"), calls, delay_s=0.2)
            barrier.wait()
            got[i] = store.launch(wl, graph)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        assert calls == ["bfs-dwc"]
        assert got[0].trace is not got[1].trace
        assert batches(got[0]) == batches(got[1])

    def test_interleaved_runs_match_solo_runs(self, graph):
        """Two runs replaying one stored trace concurrently (each seeking
        its own cursor) give the results of runs on private traces."""
        wl = get_workload("bfs-ta")
        policies = ["coolpim-hw", "naive-offloading"]
        get_trace_store().clear()
        got = {}

        def worker(policy):
            got[policy] = CoolPimSystem().run(wl, graph, policy)

        threads = [threading.Thread(target=worker, args=(p,))
                   for p in policies]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        from repro.core.policies import make_policy
        from repro.gpu.simulator import SystemSimulator
        from repro.hmc.flow import HmcFlowModel
        from repro.thermal.sensor import ThermalSensor

        for policy in policies:
            system = CoolPimSystem()
            sim = SystemSimulator(
                cache=wl.cache_model(), flow=HmcFlowModel(system.hmc),
                thermal=system.thermal, sensor=ThermalSensor(),
            )
            solo = sim.run(wl.launch(graph), make_policy(policy))
            assert got[policy].to_dict(include_timeline=True) == solo.to_dict(
                include_timeline=True), policy

    def test_stress_more_threads_than_cores(self, graph, monkeypatch):
        """Eight threads hammer four keys through a two-entry LRU with a
        tiny switch interval: every lookup returns its own key's trace
        behind a cursor no other thread moves."""
        import random
        import sys

        expected = {
            seed: batches(get_workload("dc", seed=seed).launch(graph))
            for seed in range(4)
        }
        monkeypatch.setattr(trace_store, "MAX_ENTRIES", 2)
        store = TraceStore()
        errors = []

        def worker(i):
            rng = random.Random(i)
            try:
                for _ in range(40):
                    seed = rng.randrange(4)
                    wl = get_workload("dc", seed=seed)
                    got = store.launch(wl, graph)
                    pos = rng.randrange(len(got.trace) + 1)
                    got.trace.seek(pos)
                    other = store.launch(wl, graph)
                    if (batches(got) != expected[seed]
                            or other.trace.position != 0
                            or got.trace.position != pos):
                        errors.append((i, seed))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert len(store) <= 2

    def test_lru_bound_evicts_oldest(self, graph, monkeypatch):
        monkeypatch.setattr(trace_store, "MAX_ENTRIES", 2)
        store = TraceStore()
        calls = []
        for seed in (0, 1, 2):
            store.launch(counted(get_workload("dc", seed=seed), calls), graph)
        assert len(store) == 2
        # seed 2 and 1 are resident; seed 0 was evicted and regenerates.
        store.launch(counted(get_workload("dc", seed=2), calls), graph)
        assert len(calls) == 3
        store.launch(counted(get_workload("dc", seed=0), calls), graph)
        assert len(calls) == 4 and len(store) == 2


class TestDiskTier:
    @pytest.fixture
    def trace_dir(self, tmp_path):
        return TraceDir(tmp_path / "traces", "fingerprint-a")

    def lookup(self, trace_dir, graph, calls, workload="bfs-ta"):
        """A fresh process's view: empty memory tier over ``trace_dir``."""
        wl = counted(get_workload(workload), calls)
        with disk_tier(trace_dir):
            return TraceStore().launch(wl, graph)

    def only_file(self, trace_dir):
        (path,) = trace_dir.root.glob("*.npz")
        return path

    def test_round_trip_skips_generation(self, trace_dir, graph):
        calls = []
        first = self.lookup(trace_dir, graph, calls)
        again = self.lookup(trace_dir, graph, calls)
        assert calls == ["bfs-ta"]
        assert batches(again) == batches(first)
        assert again.total_threads == first.total_threads
        assert again.name == first.name

    @pytest.mark.parametrize("damage", ["truncate", "flip", "tamper"])
    def test_damaged_file_recomputes(self, trace_dir, graph, damage):
        calls = []
        good = batches(self.lookup(trace_dir, graph, calls))
        path = self.only_file(trace_dir)
        raw = bytearray(path.read_bytes())
        if damage == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        elif damage == "flip":
            raw[len(raw) // 3] ^= 0xFF
            path.write_bytes(bytes(raw))
        else:
            # A well-formed archive whose data no longer matches its
            # checksum (e.g. edited by hand).
            with np.load(path, allow_pickle=False) as data:
                arrays = {k: data[k] for k in data.files}
            arrays["reads"] = arrays["reads"] + 1
            with open(path, "wb") as f:
                np.savez_compressed(f, **arrays)
        assert batches(self.lookup(trace_dir, graph, calls)) == good
        assert len(calls) == 2
        # The regenerated trace was written back and verifies again.
        assert batches(self.lookup(trace_dir, graph, calls)) == good
        assert len(calls) == 2

    def test_stale_fingerprint_recomputes(self, trace_dir, graph):
        calls = []
        good = batches(self.lookup(trace_dir, graph, calls))
        newer = TraceDir(trace_dir.root, "fingerprint-b")
        assert batches(self.lookup(newer, graph, calls)) == good
        assert len(calls) == 2
        # A stale archive planted under the new key is rejected too.
        key = trace_key(get_workload("bfs-ta"), graph, GPU_DEFAULT)
        old = trace_dir.path_for(trace_dir.file_key(key))
        planted = newer.path_for(newer.file_key(key))
        planted.write_bytes(old.read_bytes())
        assert batches(self.lookup(newer, graph, calls)) == good
        assert len(calls) == 3
        stats = newer.stats()
        assert (stats["entries"], stats["stale_entries"]) == (2, 1)
        assert newer.prune_stale() == 1
        assert newer.stats()["entries"] == 1

    def test_writer_killed_mid_write_leaves_no_entry(self, trace_dir, graph):
        calls = []
        wl = get_workload("bfs-ta")
        key = trace_key(wl, graph, GPU_DEFAULT)
        launch = wl.launch(graph)
        trace = StoredTrace(launch.name, tuple(launch.trace),
                            launch.total_threads, launch.config)
        pid = os.fork()
        if pid == 0:  # the writer: dies halfway through the archive
            def dying(f, **arrays):
                f.write(b"PK\x03\x04 half an archive")
                f.flush()
                os._exit(9)

            np.savez_compressed = dying
            trace_dir.save(key, trace)
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 9
        assert list(trace_dir.root.glob(".*.tmp"))
        assert not list(trace_dir.root.glob("*.npz"))
        assert batches(self.lookup(trace_dir, graph, calls)) == list(
            trace.batches)
        assert calls == ["bfs-ta"]
        assert trace_dir.clear() == 1
        assert not list(trace_dir.root.iterdir())

    def test_object_dtype_archive_is_never_unpickled(self, trace_dir, graph):
        calls = []
        good = batches(self.lookup(trace_dir, graph, calls))
        path = self.only_file(trace_dir)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["labels"] = arrays["labels"].astype(object)
        with open(path, "wb") as f:
            np.savez_compressed(f, **arrays)
        assert batches(self.lookup(trace_dir, graph, calls)) == good
        assert len(calls) == 2


def test_disk_tier_is_scoped(tmp_path, graph):
    """Outside a ``disk_tier`` block the store writes nothing to disk."""
    trace_dir = TraceDir(tmp_path / "traces", "fp")
    TraceStore().launch(get_workload("dc", seed=7), graph)
    assert not trace_dir.root.exists()
    with disk_tier(trace_dir):
        TraceStore().launch(get_workload("dc", seed=7), graph)
    assert trace_dir.stats()["entries"] == 1


def test_fill_is_one_workload_span_per_acquisition(tmp_path, graph):
    """Generating or loading a trace is one ``workload.trace`` span that
    names its tier and epoch count; a memory hit does no work and emits
    none."""
    from repro.obs.tracer import tracing

    trace_dir = TraceDir(tmp_path / "traces", "fp")
    with tracing() as tr:
        with disk_tier(trace_dir):
            store = TraceStore()
            launch = store.launch(get_workload("dc", seed=3), graph)
            store.launch(get_workload("dc", seed=3), graph)
            TraceStore().launch(get_workload("dc", seed=3), graph)
    spans = [r for r in tr.records if r["cat"] == "workload"]
    assert [(s["name"], s["ph"]) for s in spans] == [("workload.trace", "X")] * 2
    assert [s["args"]["tier"] for s in spans] == ["generated", "disk"]
    assert [s["args"]["epochs"] for s in spans] == [len(launch.trace)] * 2
