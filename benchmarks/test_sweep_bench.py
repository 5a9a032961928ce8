"""Sweep-scale throughput: per-run jobs with and without the trace store.

Runs the Fig. 10 sweep — every registry workload under the full
five-policy evaluation matrix — as 50 ``simulation`` jobs
(:func:`~repro.service.handlers.run_simulation_job`), exactly as a sweep
worker executes them, in two legs:

- **per-run leg** — the trace store
  (:mod:`repro.workloads.trace_store`) is cleared before every cell, so
  each job generates its epoch trace afresh;
- **store leg** — the same 50 cells with the store live: each workload's
  trace is generated by its first cell and replayed by the other four.

``test_trace_store_sweep_speedup`` pins the store leg at >=3.0x
aggregate wall clock over the per-run leg at full scale (>=1.5x under
``REPRO_BENCH_QUICK=1``, where the small graph makes trace generation
cheap), while asserting every cell's result is *bit-identical* between
the legs.

Each run's measurements are written to ``BENCH_sweep.json`` in the
working directory; ``benchmarks/baselines.json`` registers the aggregate
for the ``repro bench-trend`` gate. That committed artifact is full-scale
only: a ``REPRO_BENCH_QUICK=1`` run writes ``BENCH_sweep.quick.json``
instead (git-ignored, never gated).
"""

import json
import os
import time
from pathlib import Path

from repro.core.policies import POLICY_NAMES
from repro.service.handlers import run_simulation_job, simulation_spec
from repro.telemetry.trend import artifact_provenance
from repro.workloads import list_workloads
from repro.workloads.trace_store import get_trace_store

#: The Fig. 10 evaluation matrix: the four policy curves plus the
#: non-offloading baseline they are normalized to.
POLICIES = list(POLICY_NAMES)

#: Aggregate wall-clock floor, store leg over per-run leg, at full scale.
#: Six full-scale runs on a 2-vCPU host measured 3.62-4.23x (median
#: 3.70x). The ratio tracks the trace share of a cold job, so a store
#: that stops sharing traces falls through the floor.
SPEEDUP_FLOOR_FULL = 3.0
SPEEDUP_FLOOR_QUICK = 1.5


def _quick() -> bool:
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def _artifact() -> Path:
    return Path("BENCH_sweep.quick.json" if _quick() else "BENCH_sweep.json")


def _config():
    if _quick():
        return "ldbc-small", 0.25, SPEEDUP_FLOOR_QUICK
    return "ldbc", 1.0, SPEEDUP_FLOOR_FULL


def _result_of(payload):
    """The comparable portion of a job payload's result dict."""
    result = dict(payload["result"])
    result.pop("timeline", None)
    return result


def _run_leg(workloads, dataset, scale, fresh_traces):
    """Run every cell; returns ``(payloads, per-workload s, total s)``."""
    store = get_trace_store()
    store.clear()
    payloads, per_wl = {}, {}
    t_leg = time.perf_counter()
    for wl in workloads:
        t0 = time.perf_counter()
        for policy in POLICIES:
            if fresh_traces:
                store.clear()
            spec = simulation_spec(
                wl, dataset=dataset, policy=policy, workload_scale=scale,
            )
            payloads[wl, policy] = run_simulation_job(spec)
        per_wl[wl] = time.perf_counter() - t0
    return payloads, per_wl, time.perf_counter() - t_leg


def test_trace_store_sweep_speedup():
    dataset, scale, floor = _config()
    workloads = list_workloads()

    # Warm the process the way a prewarmed sweep worker is warmed:
    # dataset load, thermal operator assembly, reduced-basis projection.
    run_simulation_job(simulation_spec(
        "pagerank", dataset=dataset, policy="coolpim-hw",
        workload_scale=scale,
    ))

    per_run, per_run_s, per_run_total = _run_leg(
        workloads, dataset, scale, fresh_traces=True)
    shared, store_s, store_total = _run_leg(
        workloads, dataset, scale, fresh_traces=False)

    # Correctness rides along with the timing: a replayed trace must give
    # every cell the result a freshly generated one gives.
    for cell, payload in per_run.items():
        assert _result_of(shared[cell]) == _result_of(payload), cell

    aggregate = per_run_total / store_total
    rows = {
        wl: {
            "per_run_s": per_run_s[wl],
            "store_s": store_s[wl],
            "speedup": per_run_s[wl] / store_s[wl],
        }
        for wl in workloads
    }
    _artifact().write_text(json.dumps({
        "benchmark": "sweep_store_vs_per_run",
        **artifact_provenance(quick=_quick()),
        "config": {
            "dataset": dataset,
            "workload_scale": scale,
            "policies": POLICIES,
            "workloads": workloads,
            "quick": _quick(),
        },
        "per_run_s": per_run_total,
        "store_s": store_total,
        "aggregate_speedup": aggregate,
        "workloads_detail": rows,
    }, indent=2) + "\n")

    per_wl = ", ".join(f"{wl}={r['speedup']:.1f}x" for wl, r in rows.items())
    assert aggregate >= floor, (
        f"trace store only {aggregate:.2f}x over the per-run sweep "
        f"(floor {floor}x; {per_wl})"
    )
