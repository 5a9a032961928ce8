#!/usr/bin/env python3
"""The repository benchmark: host time users wait for on three user paths.

Run from the repository root:

    python3 perfbench/run.py --workload grid-ldbc --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --compare RECORD_A.json RECORD_B.json

Workloads (simulated outputs are deterministic, so only host time varies):

* ``api-cold`` -- a stock ``repro serve`` (2 worker threads, serial jobs)
  on an empty result store. Two closed-loop clients each submit one
  ``POST /runs`` Fig. 10 cell (full-scale ``ldbc``, commodity cooling)
  and follow its JSONL event stream to the terminal event before sending
  the next. Cells of one workload go out consecutively.
* ``grid-ldbc`` -- in-process ``CoolPimSystem.run`` over 5 policies x
  the four Table II coolings x the ten Fig. 10 workloads on ``ldbc``.
  Traces are built in set-up, so the timed section is the control loop.
* ``grid-road`` -- the same grid on ``road`` for the two workloads of the
  dataset-sensitivity experiment plus kcore.

Every pass runs in fresh processes on empty temporary cache directories
under ``perfbench/.out``. ``--seed`` only orders the cells; api-cold
blocks alternate between the default simulation seed 0 and the held-out
seed 1. Every result is compared bit for bit with
``perfbench/goldens.json``.

Grid times are host seconds at a reference host speed: the worker times
a fixed probe (``worker.host_probe``) before every cell, and each shard's
times are scaled by ``PROBE_NOMINAL_S`` over its mean probe time, because
the shared hosts this runs on drift by tens of percent between minutes.
The factors are printed and kept in the run record (raw = reported x
factor). api-cold times are raw: its server keeps both cores busy, so no
probe can run beside it, and probes taken around its window did not
track the speed inside it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced and then again with the layer wrappers of ``layers.py``
installed, and prints the per-layer metrics. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from layers import merge
from worker import cell_key, digest, peak_rss_mb, snapshot_counters

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"
GOLDENS = BENCH_DIR / "goldens.json"

POLICIES = ["non-offloading", "naive-offloading", "coolpim-sw", "coolpim-hw",
            "ideal-thermal"]
COOLINGS = ["passive", "low-end", "commodity", "high-end"]
FIG10_WORKLOADS = ["dc", "bfs-ta", "bfs-dwc", "bfs-ttc", "bfs-twc", "kcore",
                   "pagerank", "sssp-dtc", "sssp-dwc", "sssp-twc"]
# The seven traversals spend most of a job generating their epoch trace
# and cost within ~25% of each other; dc, kcore and pagerank finish in a
# fraction of that and would dominate a pass's run count.
TRAVERSALS = ["bfs-ta", "bfs-dwc", "bfs-ttc", "bfs-twc", "sssp-dtc",
              "sssp-dwc", "sssp-twc"]
HELD_OUT_SEED = 1

WORKLOADS = {
    # One pass: every traversal once, as a block of three policies.
    "api-cold": {
        "dataset": "ldbc", "workloads": TRAVERSALS, "policies": POLICIES,
        "cooling": "commodity", "sim_seeds": [0, HELD_OUT_SEED],
        "policies_per_block": 3, "clients": 2, "server_starts": 3,
    },
    # Each shard is a fresh process that sets up its workloads' traces
    # and runs them under every policy and cooling; the shards balance
    # trace cost, so their set-up times are samples of one quantity.
    "grid-ldbc": {
        "dataset": "ldbc", "policies": POLICIES, "coolings": COOLINGS,
        "sim_seed": 0,
        "shards": [["dc", "bfs-ta", "sssp-dtc", "kcore"],
                   ["bfs-dwc", "bfs-twc", "pagerank"],
                   ["bfs-ttc", "sssp-dwc", "sssp-twc"]],
    },
    # kcore's fast runs keep the median off the gap between the two
    # traversals' latency clusters.
    "grid-road": {
        "dataset": "road", "policies": POLICIES, "coolings": COOLINGS,
        "sim_seed": 0, "shards": [["bfs-dwc"], ["sssp-dwc", "kcore"]],
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "runs_per_s": "1/s", "run_latency_p50_s": "s",
    "run_latency_tail_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
# Work counters that must repeat exactly between runs of the same code.
EXACT_COUNTERS = (
    "workloads.trace_calls", "workloads.epochs", "gpu.control_steps",
    "gpu.macro_bursts", "thermal.exact_steps", "thermal.quanta_marched",
    "core.thermal_warnings", "service.store_hits", "service.store_misses",
)
# Mean probe time on the host the bounds were set on (Xeon, 2 vCPUs).
PROBE_NOMINAL_S = 0.011
PROCESS_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed operation)."""


# -- shared plumbing ----------------------------------------------------------

def fresh_dir() -> Path:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="pass-", dir=OUT / "tmp"))


def child_env(cache_dir: Path) -> dict:
    """Environment of a measured process: the checkout's ``src``, an empty
    cache dir, and no inherited ``REPRO_*`` settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def tail_percentile(samples: list) -> tuple:
    """(percentile, value, samples beyond it): the highest percentile of
    the ladder with at least ten samples beyond it, else the median."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


class CounterLedger:
    """Exact work counters per cell, keyed by the code fingerprint; a
    counter that differs from an earlier run of the same code is an error."""

    def __init__(self, fingerprint: str) -> None:
        self.path = OUT / "counters.json"
        self.fingerprint = fingerprint
        doc = json.loads(self.path.read_text()) if self.path.exists() else {}
        self.doc = {fingerprint: doc.get(fingerprint, {})}
        self.mismatches: list = []

    def check(self, key: str, counters: dict) -> None:
        known = self.doc[self.fingerprint].setdefault(key, counters)
        if known != counters:
            self.mismatches.append(f"{key}: {counters} != earlier {known}")

    def save(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.doc, sort_keys=True))


def passes_until(seconds: int, run_pass) -> list:
    """Whole passes only, so every run measures the same work: stop
    before a pass that would overrun the measuring time."""
    passes, measured = [], 0.0
    while True:
        passes.append(run_pass())
        last = passes[-1]["measured_s"]
        measured += last
        if last <= 0 or measured + last > seconds:
            return passes


# -- grid workloads -----------------------------------------------------------

def run_worker(spec: dict) -> tuple:
    """One fresh worker process: ``(setup_s, report)``."""
    tmp = fresh_dir()
    try:
        (tmp / "spec.json").write_text(json.dumps(spec))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"),
             str(tmp / "spec.json"), str(tmp / "out.json")],
            cwd=ROOT, env=child_env(tmp / "cache"), stdout=sys.stderr,
        )
        try:
            code = proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("grid worker timed out") from None
        if code != 0:
            raise BenchError(f"grid worker exited with code {code}")
        report = json.loads((tmp / "out.json").read_text())
        return report["setup_end"] - t0, report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_grid_pass(p: dict, shard_cells: list, traced: bool,
                  goldens: dict) -> dict:
    out = {"setups": [], "records": [], "latencies": [], "speeds": [],
           "rss": 0.0, "measured_s": 0.0, "timed_self_s": 0.0}
    ledgers = []
    for workloads, cells in zip(p["shards"], shard_cells):
        spec = {
            "dataset": p["dataset"], "workloads": workloads,
            "coolings": p["coolings"], "sim_seed": p["sim_seed"],
            "cells": cells, "trace": traced,
        }
        setup_s, report = run_worker(spec)
        # How much slower than nominal the host ran (>1 is slower).
        speed = statistics.fmean(
            cell["probe_s"] for cell in report["cells"]) / PROBE_NOMINAL_S
        out["speeds"].append(speed)
        out["setups"].append(setup_s / speed)
        out["rss"] = max(out["rss"], report["peak_rss_mb"])
        for cell in report["cells"]:
            ok = goldens.get(cell["key"]) == cell["digest"]
            out["records"].append(dict(
                cell, ok=ok, reason=None if ok else "result differs from golden"))
            out["measured_s"] += cell["latency_s"]
            if ok:
                out["latencies"].append(cell["latency_s"] / speed)
        if traced:
            ledgers.append(report["ledger"])
            out["timed_self_s"] += timed_self_total(report["setup_ledger"],
                                                    report["ledger"])
    out["busy_s"] = sum(out["latencies"])
    out["ledger"] = merge(ledgers)
    return out


def run_grid(p: dict, seed: int, seconds: int, trace: bool,
             goldens: dict) -> dict:
    rng = random.Random(seed)
    shard_cells = []
    for workloads in p["shards"]:
        cells = [[w, pol, c] for c in p["coolings"] for w in workloads
                 for pol in p["policies"]]
        rng.shuffle(cells)
        shard_cells.append(cells)

    def run_pass(traced: bool = False) -> dict:
        return run_grid_pass(p, shard_cells, traced, goldens)

    if trace:
        passes, traced = [run_pass()], run_pass(traced=True)
    else:
        passes, traced = passes_until(seconds, run_pass), None
    return {"passes": passes, "traced": traced,
            "setups": [s for ps in passes for s in ps["setups"]]}


# -- api-cold -----------------------------------------------------------------

class Server:
    """A ``repro serve`` process on an empty cache dir (``traced`` runs it
    through ``serve.py`` with the layer wrappers installed)."""

    def __init__(self, traced: bool) -> None:
        self.dir = fresh_dir()
        self.ledger_path = self.dir / "ledger.json"
        args = ["serve", "--port", "0", "--cache-dir", str(self.dir / "cache")]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "serve.py"),
                   str(self.ledger_path), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self.log = open(self.dir / "server.log", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(self.dir / "cache"),
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            banner = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - t0
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            if not match:
                raise BenchError(f"server did not come up: {banner!r}")
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> dict:
        """Drain and stop the server; returns its layer totals if traced."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
            self.log.close()
            if self.ledger_path.exists():
                return json.loads(self.ledger_path.read_text())
            return {}
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


def api_cells(p: dict, rng: random.Random) -> list:
    """Every traversal once, as a block of consecutive cells. The cells
    are the same for every seed -- the policies rotate over the blocks
    and the simulation seed alternates between the default and the
    held-out one -- because runs/s differed by ~15% between seeds that
    drew different cells; the seed orders the blocks and each block."""
    n = p["policies_per_block"]
    blocks = []
    for i, workload in enumerate(p["workloads"]):
        sim_seed = p["sim_seeds"][i % len(p["sim_seeds"])]
        policies = [p["policies"][(i + k) % len(p["policies"])]
                    for k in range(n)]
        rng.shuffle(policies)
        blocks.append([(workload, policy, sim_seed) for policy in policies])
    rng.shuffle(blocks)
    return [cell for block in blocks for cell in block]


def submit_and_follow(server: Server, p: dict, cell: tuple,
                      goldens: dict) -> dict:
    """One closed-loop request: POST /runs, then follow the run's event
    stream to its terminal event."""
    workload, policy, sim_seed = cell
    key = cell_key(p["dataset"], workload, policy, p["cooling"], sim_seed)
    rec = {"key": key, "ok": False, "t_submit": time.perf_counter()}
    body = json.dumps({"workload": workload, "dataset": p["dataset"],
                       "policy": policy, "cooling": p["cooling"],
                       "seed": sim_seed})
    try:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=PROCESS_TIMEOUT_S)
        try:
            conn.request("POST", "/runs", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        if response.status != 202:
            rec["reason"] = f"POST /runs -> {response.status}: {doc}"
            return rec
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=PROCESS_TIMEOUT_S)
        events = []
        try:
            conn.request("GET", f"/runs/{doc['run_id']}/events?format=jsonl")
            response = conn.getresponse()
            for raw in response:
                if raw.strip():
                    events.append(json.loads(raw))
                    if events[-1]["event"] in ("completed", "failed"):
                        break
        finally:
            conn.close()
        rec["t_done"] = time.perf_counter()
        terminal = events[-1] if events else {}
        if terminal.get("event") != "completed":
            rec["reason"] = f"terminal event {terminal}"
            return rec
        by_name = {e["event"]: e for e in events}
        rec["latency_s"] = rec["t_done"] - rec["t_submit"]
        rec["queue_wait_s"] = by_name["started"]["ts"] - by_name["queued"]["ts"]
        rec["counters"] = snapshot_counters(terminal["metrics"])
        result = terminal["result"]
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        rec["reason"] = f"{type(exc).__name__}: {exc}"
        return rec
    if digest(result) != goldens.get(key):
        rec["reason"] = "result differs from golden"
        return rec
    rec["ok"] = True
    return rec


def drive(server: Server, p: dict, cells: list, goldens: dict) -> list:
    """Closed loop: each client sends its next cell when the last one's
    terminal event arrives, until the cells run out."""
    lock = threading.Lock()
    pending = iter(cells)
    records: list = []

    def client() -> None:
        while True:
            with lock:
                cell = next(pending, None)
            if cell is None:
                return
            rec = submit_and_follow(server, p, cell, goldens)
            with lock:
                records.append(rec)

    threads = [threading.Thread(target=client) for _ in range(p["clients"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=PROCESS_TIMEOUT_S)
        if t.is_alive():
            raise BenchError("api client did not finish")
    return records


def run_api(p: dict, seed: int, seconds: int, trace: bool,
            goldens: dict) -> dict:
    cells = api_cells(p, random.Random(seed))

    def run_pass(traced: bool = False, extra_starts: int = 0) -> dict:
        setups = []
        for _ in range(extra_starts):
            server = Server(traced=False)
            setups.append(server.setup_s)
            server.stop()
        server = Server(traced)
        setups.append(server.setup_s)
        try:
            records = drive(server, p, cells, goldens)
            rss = peak_rss_mb(server.proc.pid)
        finally:
            ledger = server.stop()
        done = [r for r in records if r["ok"]]
        latencies = [r["latency_s"] for r in done]
        return {
            "setups": setups, "records": records, "rss": rss,
            "ledger": ledger, "speeds": [],
            "measured_s": (max(r["t_done"] for r in done)
                           - min(r["t_submit"] for r in records))
            if done else 0.0,
            "latencies": latencies,
            # Closed loop: throughput is clients over mean latency, which
            # leaves out the ragged end where one client has finished.
            "busy_s": sum(latencies) / p["clients"],
        }

    if trace:
        passes, traced = [run_pass()], run_pass(traced=True)
    else:
        # Servers started only to sample set-up time go with the first pass.
        extra = iter([p["server_starts"] - 1])
        passes = passes_until(
            seconds, lambda: run_pass(extra_starts=next(extra, 0)))
        traced = None
    return {"passes": passes, "traced": traced,
            "setups": [s for ps in passes for s in ps["setups"]]}


# -- metrics ------------------------------------------------------------------

def end_to_end(setups: list, latencies: list, busy_s: float, rss_mb: float,
               attempted: int, failed: int) -> tuple:
    """End-to-end metrics plus the sample notes printed beside them."""
    pct, tail, beyond = tail_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "runs_per_s": len(latencies) / busy_s,
        "run_latency_p50_s": statistics.median(latencies),
        "run_latency_tail_s": tail,
        "peak_rss_mb": rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups",
        "runs_per_s": f"{len(latencies)} runs in {busy_s:.3f} s",
        "run_latency_p50_s": f"n={len(latencies)}",
        "run_latency_tail_s": f"p{pct:g}, n={len(latencies)}, "
                              f"{beyond} beyond",
        "peak_rss_mb": "simulating process",
        "ok_ratio": f"failed_ratio={failed / attempted:g} "
                    f"({failed}/{attempted})",
    }
    return metrics, notes


def exempt_policies(policies: list) -> set:
    sys.path.insert(0, str(SRC))
    from repro.core.policies import make_policy

    return {p for p in policies if make_policy(p).thermal_exempt}


def layer_metrics(totals: dict, counters: list, exempt: set,
                  unattributed_s: float, overhead_ratio: float,
                  queue_wait_s: float = 0.0, api_overhead_s: float = 0.0
                  ) -> dict:
    """Per-layer metrics from merged layer totals and per-cell counters
    (``counters`` holds ``(key, counters)`` pairs)."""
    self_s, incl = totals["self"], totals["incl"]
    calls, counts = totals["calls"], totals["counts"]

    def total(name: str, only=None) -> int:
        return sum(c[name] for key, c in counters
                   if only is None or only(key))

    control_steps = total("control_steps")
    # Thermal substeps a burst committed: every solver step of a run that
    # is not an exact (scalar-path) step; exempt runs march nothing.
    marched = counts.get("quanta_marched", 0)
    exact_steps = calls.get("thermal.exact_step", 0)
    committed = total("thermal_solver_steps",
                      lambda key: key.split("/")[2] not in exempt) - exact_steps
    values = {
        "workloads.trace_s": (self_s.get("workloads.trace", 0.0), "s"),
        "workloads.trace_calls": (calls.get("workloads.trace", 0), "count"),
        "workloads.epochs": (counts.get("epochs", 0), "count"),
        "gpu.sim_s": (incl.get("gpu.sim", 0.0), "s"),
        "gpu.self_s": (self_s.get("gpu.sim", 0.0), "s"),
        "gpu.host_us_per_control_step": (
            1e6 * incl.get("gpu.sim", 0.0) / max(1, control_steps), "us"),
        "gpu.cache_filter_s": (self_s.get("gpu.cache_filter", 0.0), "s"),
        "gpu.cache_filter_calls": (calls.get("gpu.cache_filter", 0), "count"),
        "gpu.control_steps": (control_steps, "count"),
        "gpu.macro_bursts": (total("macro_bursts"), "count"),
        "gpu.speculation_yield": (committed / marched if marched else 0.0,
                                  "ratio"),
        "thermal.march_s": (self_s.get("thermal.march", 0.0), "s"),
        "thermal.quanta_marched": (marched, "count"),
        "thermal.peaks_s": (self_s.get("thermal.peaks", 0.0), "s"),
        "thermal.project_s": (self_s.get("thermal.project", 0.0), "s"),
        "thermal.exact_step_s": (self_s.get("thermal.exact_step", 0.0), "s"),
        "thermal.exact_steps": (exact_steps, "count"),
        "thermal.basis_s": (self_s.get("thermal.basis", 0.0), "s"),
        "hmc.flow_s": (self_s.get("hmc.flow", 0.0), "s"),
        "core.policy_s": (self_s.get("core.policy", 0.0), "s"),
        "core.policy_calls": (calls.get("core.policy", 0), "count"),
        "core.thermal_warnings": (total("thermal_warnings"), "count"),
        "service.handler_s": (self_s.get("service.handler", 0.0), "s"),
        "service.scheduler_s": (self_s.get("service.scheduler", 0.0), "s"),
        "service.serialize_s": (self_s.get("service.serialize", 0.0), "s"),
        "service.store_put_s": (self_s.get("service.store_put", 0.0), "s"),
        "service.store_hits": (counts.get("store_hits", 0), "count"),
        "service.store_misses": (counts.get("store_misses", 0), "count"),
        "api.queue_wait_s": (queue_wait_s, "s"),
        "api.overhead_s": (api_overhead_s, "s"),
        "graph.load_s": (self_s.get("graph.load", 0.0), "s"),
        "unattributed_s": (unattributed_s, "s"),
        "tracing.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def timed_self_total(setup_ledger: dict, ledger: dict) -> float:
    """Self time of every wrapped call made after set-up ended."""
    before = setup_ledger["self"]
    return sum(v - before.get(k, 0.0) for k, v in ledger["self"].items())


# -- correctness statements ----------------------------------------------------

def fig10_check(records: list) -> list:
    """Regenerate Fig. 10 from the commodity slice, compare it with
    ``results/fig10.txt`` and print the simulated headline speedups beside
    the paper's. Returns errors."""
    sys.path.insert(0, str(SRC))
    from dataclasses import fields

    from repro.experiments.common import RunScale
    from repro.experiments.evaluation import EvaluationMatrix
    from repro.experiments.fig10_speedup import (
        POLICIES as FIG10_POLICIES, SpeedupResult, format_result,
    )
    from repro.gpu.simulator import SimulationResult

    names = {f.name for f in fields(SimulationResult)}
    by_key = {r["key"]: r["result"] for r in records if r["ok"]}
    results = {}
    for wl in FIG10_WORKLOADS:
        results[wl] = {}
        for policy in POLICIES:
            summary = by_key.get(cell_key("ldbc", wl, policy, "commodity", 0))
            if summary is None:
                return [f"no commodity result for {wl}/{policy}"]
            results[wl][policy] = SimulationResult(
                **{k: v for k, v in summary.items() if k in names})
    matrix = EvaluationMatrix(scale=RunScale.full(), results=results)
    speedups = {wl: {p: matrix.speedup(wl, p) for p in FIG10_POLICIES}
                for wl in matrix.workloads}
    geo = {p: matrix.geo_mean_speedup(p) for p in FIG10_POLICIES}
    fig = SpeedupResult(matrix=matrix, speedups=speedups, geo_means=geo)
    committed = (ROOT / "results" / "fig10.txt").read_bytes()
    if (format_result(fig) + "\n").encode("utf-8") != committed:
        return ["regenerated Fig. 10 differs from results/fig10.txt"]
    print("fig10: commodity slice regenerates results/fig10.txt "
          "byte-identically")
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

    def paper(pattern: str, percent: bool = False) -> list:
        match = re.search(pattern, text)
        if not match:
            return [None] * re.compile(pattern).groups
        return [1 + float(g) / 100 if percent else float(g)
                for g in match.groups()]

    sw, hw = paper(r"CoolPIM average: paper \+(\d+) % \(SW\) / \+(\d+) %",
                   percent=True)
    (vs_naive,) = paper(r"CoolPIM vs na\S+: paper up to ([\d.]+)")
    (vs_base,) = paper(r"CoolPIM vs baseline: paper up to ([\d.]+)")
    ideal_avg, ideal_max = paper(
        r"Ideal thermal: paper avg \+(\d+) % / max \+(\d+) %", percent=True)
    rows = [
        ("geo-mean CoolPIM(SW)", geo["coolpim-sw"], sw),
        ("geo-mean CoolPIM(HW)", geo["coolpim-hw"], hw),
        ("geo-mean ideal thermal", geo["ideal-thermal"], ideal_avg),
        ("best CoolPIM vs baseline", fig.best_coolpim_vs_baseline(), vs_base),
        ("best CoolPIM vs naive", fig.best_coolpim_vs_naive(), vs_naive),
        ("best ideal thermal",
         max(s["ideal-thermal"] for s in speedups.values()), ideal_max),
    ]
    print("model error vs the paper (EXPERIMENTS.md), simulated speedups:")
    for name, sim, ref in rows:
        err = f"{100 * (sim / ref - 1):+.1f}%" if ref else "n/a"
        ref_text = f"{ref:.2f}x" if ref else "n/a"
        print(f"  {name:26s} sim {sim:.3f}x  paper {ref_text:6s} error {err}")
    return []


# -- one benchmark run --------------------------------------------------------

def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """One run: ``(result line, host speed factors)``."""
    p = WORKLOADS[workload]
    goldens = json.loads(GOLDENS.read_text())
    counter_ledger = CounterLedger(code_fingerprint())
    print(f"workload {workload}, seed {seed}, {seconds} s, trace {int(trace)}")
    if workload == "api-cold":
        run = run_api(p, seed, seconds, trace, goldens)
    else:
        run = run_grid(p, seed, seconds, trace, goldens)
    passes = run["passes"] + ([run["traced"]] if trace else [])
    records = [r for ps in passes for r in ps["records"]]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    for rec in records:
        if rec["ok"]:
            counter_ledger.check(rec["key"], rec["counters"])
        else:
            print(f"FAILED {rec['key']}: {rec.get('reason')}")
    errors = []
    if workload == "grid-ldbc":
        errors += fig10_check(run["passes"][0]["records"])
    if not all(ps["latencies"] for ps in passes):
        raise BenchError("a pass completed no run")
    speeds = [s for ps in passes for s in ps["speeds"]]
    print(f"passes: {len(run['passes'])}; host slower than nominal by "
          f"{', '.join(f'{s:.3f}x' for s in speeds)}")

    if not trace:
        latencies = [x for ps in run["passes"] for x in ps["latencies"]]
        metrics, notes = end_to_end(
            run["setups"], latencies,
            sum(ps["busy_s"] for ps in run["passes"]),
            max(ps["rss"] for ps in run["passes"]), attempted, failed)
        out_metrics = {}
        for name, value in metrics.items():
            unit = END_TO_END_UNITS[name]
            print(f"  {name:20s} {value:12.6g} {unit:6s} ({notes[name]})")
            out_metrics[name] = {"value": value, "unit": unit}
    else:
        # Layer times are raw host seconds; the overhead ratio compares
        # speed-scaled totals, as the two passes ran at different times.
        untraced, traced = run["passes"][0], run["traced"]
        ratio = sum(traced["latencies"]) / sum(untraced["latencies"])
        ledger = traced["ledger"]
        latency = sum(r["latency_s"] for r in traced["records"] if r["ok"])
        queue_wait = api_overhead = 0.0
        if workload == "api-cold":
            # The API's share is the client-observed time outside the
            # queue and outside every timed call in the server.
            root = sum(ledger["root"].values())
            queue_wait = sum(r["queue_wait_s"] for r in traced["records"]
                             if r["ok"])
            api_overhead = latency - queue_wait - root
            unattributed = root - sum(ledger["self"].values())
        else:
            unattributed = latency - traced["timed_self_s"]
        counters = [(r["key"], r["counters"]) for r in traced["records"]
                    if r["ok"]]
        out_metrics = layer_metrics(
            ledger, counters, exempt_policies(p["policies"]), unattributed,
            ratio, queue_wait, api_overhead)
        counter_ledger.check(
            f"trace/{workload}/{seed}/{digest(p)[:16]}",
            {k: out_metrics[k]["value"] for k in EXACT_COUNTERS})
        for name, m in out_metrics.items():
            print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")

    counter_ledger.save()
    errors += [f"work counter changed between runs of the same code: {m}"
               for m in counter_ledger.mismatches]
    for error in errors:
        print(f"ERROR {error}")
    result = {
        "correct": failed == 0 and not errors and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    return result, speeds


# -- provenance records -------------------------------------------------------

def git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_record(args, result: dict, host_speeds: list) -> Path:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    record = {
        "schema": "perfbench.record/1",
        "workload": args.workload,
        "params": WORKLOADS[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "seed": args.seed,
        "git_revision": git_revision(),
        "code_fingerprint": code_fingerprint(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "host_speeds": host_speeds,
        "result": result,
    }
    path = OUT / "records" / (f"{args.workload}-seed{args.seed}-"
                              f"trace{args.trace}-{time.time_ns()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def compare(path_a: str, path_b: str) -> int:
    """Print B/A per metric; refuse (exit 2) if the workloads differ."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    shape = ("schema", "workload", "params", "seconds", "trace")
    differ = [k for k in shape if a.get(k) != b.get(k)]
    if differ:
        print(f"refusing to compare: records differ in {', '.join(differ)}",
              file=sys.stderr)
        return 2
    print(f"{a['workload']}: A={a['git_revision'] or a['code_fingerprint']}"
          f" seed {a['seed']}, B={b['git_revision'] or b['code_fingerprint']}"
          f" seed {b['seed']}")
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"  {name:30s} {ma['value']:12.6g} -> {mb['value']:12.6g} "
              f"{ma['unit']:6s} B/A {ratio:.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for args.workload in names:
        try:
            result, host_speeds = bench(args.workload, args.seed,
                                        args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        record = write_record(args, result, host_speeds)
        print(f"record: {record.relative_to(ROOT)}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
