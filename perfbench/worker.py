"""One shard of a grid pass, run in a fresh process.

Set-up builds the shard's epoch traces once through the public
``GraphWorkload.launch`` and the reduced thermal basis of each cooling,
so the timed section is the control loop only: one ``CoolPimSystem.run``
call per cell, in the order the spec gives, each after a host probe.

    python3 perfbench/worker.py SPEC.json OUT.json

``run.py`` writes the spec and reads the report; ``make_goldens.py``
calls :func:`run_shard` in-process.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def digest(result: dict) -> str:
    """Bit-exact fingerprint of a ``SimulationResult.to_dict()`` payload
    (JSON floats round-trip exactly, so equal digests mean equal bits)."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_key(dataset: str, workload: str, policy: str, cooling: str,
             seed: int) -> str:
    return f"{dataset}/{workload}/{policy}/{cooling}/{seed}"


def snapshot_counters(snapshot: dict) -> dict:
    """Exact work counters of one run from its ``sim.*`` stats snapshot."""

    def value(name: str) -> int:
        return int(snapshot.get(name, {}).get("value", 0))

    return {
        "epochs": value("sim.epochs"),
        "control_steps": value("sim.control_steps"),
        "thermal_solver_steps": value("sim.thermal_solver_steps"),
        "thermal_warnings": value("sim.thermal_warnings"),
        "macro_bursts": int(
            snapshot.get("sim.macro_burst_steps", {}).get("count", 0)),
    }


def host_probe() -> float:
    """Seconds this host takes for a fixed slice of interpreter and
    small-array work: the benchmark's own gauge of host speed, which a
    shared machine varies by tens of percent from one minute to the next."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    a = np.arange(64.0)
    for _ in range(1_200):
        a = a * 0.5 + 1.0
    return time.perf_counter() - t0


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def run_shard(spec: dict, ledger=None) -> dict:
    """Set up and run one shard; returns the report ``run.py`` reads."""
    import repro.graph.datasets as datasets
    from repro.core import CoolPimSystem
    from repro.gpu.config import GPU_DEFAULT
    from repro.thermal.cooling import COOLING_SOLUTIONS
    from repro.workloads import get_workload

    dataset, seed = spec["dataset"], spec["sim_seed"]
    graph = datasets.get_dataset(dataset)
    workloads = {}
    for name in spec["workloads"]:
        workload = get_workload(name, seed=seed)
        launch = workload.launch(graph, GPU_DEFAULT)
        # Every run of the pass replays this trace instead of rebuilding it.
        workload.launch = lambda _graph, _gpu=None, _launch=launch: _launch
        workloads[name] = workload
    systems = {}
    for cooling in spec["coolings"]:
        system = CoolPimSystem(cooling=COOLING_SOLUTIONS[cooling])
        system.thermal.propagator(system.control_dt_s)
        systems[cooling] = system
    setup_end = time.perf_counter()
    setup_ledger = ledger.totals() if ledger is not None else None

    cells = []
    for workload, policy, cooling in spec["cells"]:
        system = systems[cooling]
        probe = host_probe()
        t0 = time.perf_counter()
        result = system.run(workloads[workload], graph, policy)
        latency = time.perf_counter() - t0
        if ledger is not None:
            ledger.recording = False
        summary = result.to_dict()
        cells.append({
            "key": cell_key(dataset, workload, policy, cooling, seed),
            "latency_s": latency,
            "probe_s": probe,
            "result": summary,
            "digest": digest(summary),
            "counters": snapshot_counters(
                system.last_stats.snapshot(structured=True)
            ),
        })
        if ledger is not None:
            ledger.recording = True

    return {
        "setup_end": setup_end,
        "cells": cells,
        "peak_rss_mb": peak_rss_mb(),
        "setup_ledger": setup_ledger,
        "ledger": ledger.totals() if ledger is not None else None,
    }


def main(argv) -> int:
    spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(SRC))
    ledger = None
    if spec["trace"]:
        from layers import Ledger, install

        ledger = Ledger()
        install(ledger)
    report = run_shard(spec, ledger)
    Path(out_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
