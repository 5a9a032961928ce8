"""Acceptance scenario: one sweep, two tenants, zero duplicate work.

The ISSUE-6 end-to-end criterion: the same sweep submitted twice over
HTTP from two tenants concurrently — the second is served from cache /
single-flight without re-executing, progress events stream in order, and
``GET /leaderboard`` returns a policy ranking consistent with the cached
``SimulationResult`` aggregates.

Runs the *real* simulation path (tiny dataset, quarter-scale workload),
with the production handler wrapped only to count executions.
"""

import math
import threading

import pytest

from repro.api import ApiClient, ApiService, start_server_thread
from repro.service.handlers import run_simulation_job
from repro.service.journal import JobJournal
from repro.service.jobs import register_handler, unregister_handler
from repro.service.store import ResultStore

SWEEP = {
    "workloads": ["kcore"],
    "datasets": ["ldbc-tiny"],
    "policies": ["non-offloading", "coolpim-hw"],
    "workload_scale": 0.25,
}


@pytest.fixture
def executions():
    """Count real simulation executions without changing their behavior."""
    calls = []
    lock = threading.Lock()

    def counting(spec):
        with lock:
            calls.append(spec.key)
        return run_simulation_job(spec)

    register_handler("simulation", counting)
    try:
        yield calls
    finally:
        unregister_handler("simulation")


@pytest.fixture
def server(tmp_path, executions):
    journal = JobJournal(tmp_path / "journal.jsonl")
    service = ApiService(
        store=ResultStore(tmp_path / "cache"), journal=journal, workers=2
    )
    handle = start_server_thread(service)
    try:
        yield handle
    finally:
        handle.stop()
        journal.close()


def _wait_sweep(client, sweep_doc, timeout_s=120.0):
    return [
        client.wait_for_run(run["run_id"], timeout_s=timeout_s)
        for run in sweep_doc["runs"]
    ]


class TestEndToEnd:
    def test_concurrent_sweeps_dedupe_stream_and_rank(
        self, server, executions
    ):
        clients = {
            tenant: ApiClient(server.host, server.port, tenant=tenant)
            for tenant in ("team-a", "team-b")
        }
        barrier = threading.Barrier(2)
        submissions = {}

        def submit(tenant):
            barrier.wait()
            submissions[tenant] = clients[tenant].submit_sweep(**SWEEP)

        threads = [
            threading.Thread(target=submit, args=(t,)) for t in clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert set(submissions) == {"team-a", "team-b"}

        done = {
            tenant: _wait_sweep(clients[tenant], doc)
            for tenant, doc in submissions.items()
        }

        # --- no duplicate work: 2 unique jobs → exactly 2 executions ----
        assert len(executions) == 2
        assert len(set(executions)) == 2

        # Per content key, one submission led and the other was absorbed
        # (coalesced onto the in-flight leader, or a cache hit if the
        # leader had already finished).
        by_key = {}
        for tenant, doc in submissions.items():
            for run in doc["runs"]:
                by_key.setdefault(run["key"], []).append(run)
        for key, pair in by_key.items():
            assert len(pair) == 2
            absorbed = [
                r for r in pair
                if r["cached"] or r["coalesced_into"] is not None
            ]
            assert len(absorbed) == 1, f"key {key}: {pair}"

        # --- every run completed with identical results per key ----------
        for runs in done.values():
            for run in runs:
                assert run["status"] == "completed"
        for key, pair in by_key.items():
            results = [
                clients["team-a"].get_run(r["run_id"])["result"]["result"]
                for r in pair
            ]
            assert results[0] == results[1]

        # --- progress events stream in order, ending terminal ------------
        for tenant, doc in submissions.items():
            for run in doc["runs"]:
                events = list(
                    clients[tenant].stream_events(run["run_id"])
                )
                assert [e["seq"] for e in events] == list(
                    range(len(events))
                )
                assert events[0]["event"] == "queued"
                assert events[-1]["event"] == "completed"
                # The terminal event carries the repro.obs metrics
                # snapshot for live runs (the wire-format contract).
                assert events[-1]["result"]["runtime_s"] > 0

        # --- leaderboard consistent with the cached aggregates -----------
        board = clients["team-a"].leaderboard(workload="kcore")
        assert board["scenarios"] == 1
        by_policy = {e["policy"]: e for e in board["policies"]}
        assert set(by_policy) == {"non-offloading", "coolpim-hw"}

        runtimes = {}
        for runs in done.values():
            for run in runs:
                result = run["result"]["result"]
                runtimes[result["policy"]] = result["runtime_s"]
        expected = runtimes["non-offloading"] / runtimes["coolpim-hw"]
        assert math.isclose(
            by_policy["coolpim-hw"]["geomean_speedup"], expected,
            rel_tol=1e-9,
        )
        assert by_policy["non-offloading"]["geomean_speedup"] == 1.0
        ranked = [e["policy"] for e in board["policies"]]
        assert ranked[0] == (
            "coolpim-hw" if expected > 1.0 else "non-offloading"
        )

        # --- a third identical sweep is pure cache: zero new work --------
        resubmit = clients["team-b"].submit_sweep(**SWEEP)
        for run in resubmit["runs"]:
            assert run["cached"] and run["status"] == "completed"
        assert len(executions) == 2

    def test_cold_policy_block_generates_its_trace_once(
        self, server, executions, monkeypatch
    ):
        """Three cold ``POST /runs`` of one workload under different
        policies (two running at once on the two workers) share one
        epoch-trace generation through the trace store."""
        from repro.workloads.base import GraphWorkload
        from repro.workloads.trace_store import get_trace_store

        generations = []
        original = GraphWorkload.launch

        def counting(self, *args):
            generations.append(self.name)
            return original(self, *args)

        monkeypatch.setattr(GraphWorkload, "launch", counting)
        get_trace_store().clear()
        client = ApiClient(server.host, server.port)
        runs = [
            client.submit_run(
                workload="bfs-ta", dataset="ldbc-tiny", policy=policy,
                workload_scale=0.25, seed=3,
            )
            for policy in ("non-offloading", "coolpim-sw", "coolpim-hw")
        ]
        done = [client.wait_for_run(r["run_id"], timeout_s=120.0)
                for r in runs]
        assert [d["status"] for d in done] == ["completed"] * 3
        assert len(executions) == 3
        assert generations == ["bfs-ta"]
        metrics = client.metrics()
        for series in ("repro_trace_store_entries",
                       "repro_trace_store_misses_total",
                       'repro_trace_store_hits_total{tier="memory"}'):
            assert series in metrics
