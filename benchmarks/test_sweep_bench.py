"""Sweep-scale throughput: gang engine vs the per-run macro path.

Guards the tentpole win of the gang engine (:mod:`repro.gpu.gang`) on
the Fig. 10 sweep — every registry workload under the full five-policy
evaluation matrix, executed the way the job service executes sweeps:

- **per-run leg** — one ``simulation`` job per (workload, policy) cell,
  each re-running :func:`~repro.service.handlers.run_simulation_job`
  exactly as a sweep worker would (fresh system, fresh epoch-trace
  generation per run).
- **gang leg** — one ``gang_sweep`` job per workload
  (:func:`~repro.service.handlers.run_gang_sweep_job`): the trace is
  generated once and the policy lanes march in lockstep through the
  shared reduced thermal basis.

``test_gang_sweep_speedup`` pins the gang at >=4x aggregate wall clock
over the per-run leg at the calibrated full scale (>=1.5x under
``REPRO_BENCH_QUICK=1``, where the small graph shrinks the trace
generation the gang amortizes), while re-asserting member results are
*bit-identical* to per-run payloads across every cell of the sweep.

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
from repro.service.handlers import (
    gang_sweep_spec,
    run_gang_sweep_job,
    run_simulation_job,
    simulation_spec,
)
from repro.telemetry.trend import artifact_provenance
from repro.workloads import list_workloads

#: The Fig. 10 evaluation matrix: the four policy curves plus the
#: non-offloading baseline they are normalized to.
POLICIES = list(POLICY_NAMES)

#: Aggregate wall-clock floor, gang over per-run, at full scale. The
#: quick floor is lower: the smoke graph makes trace generation — the
#: dominant per-run cost the gang amortizes — nearly free.
SPEEDUP_FLOOR_FULL = 4.0
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


def test_gang_sweep_speedup():
    dataset, scale, floor = _config()
    workloads = list_workloads()

    # Warm the process the way a prewarmed sweep worker is warmed:
    # dataset load, thermal operator assembly, reduced-basis projection.
    run_simulation_job(simulation_spec(
        "pagerank", dataset=dataset, policy="coolpim-hw",
        workload_scale=scale,
    ))

    per_run_payloads = {}
    per_run_s = {}
    t_leg = time.perf_counter()
    for wl in workloads:
        t0 = time.perf_counter()
        for policy in POLICIES:
            spec = simulation_spec(
                wl, dataset=dataset, policy=policy, workload_scale=scale,
            )
            per_run_payloads[wl, policy] = run_simulation_job(spec)
        per_run_s[wl] = time.perf_counter() - t0
    per_run_total = time.perf_counter() - t_leg

    gang_payloads = {}
    gang_s = {}
    t_leg = time.perf_counter()
    for wl in workloads:
        t0 = time.perf_counter()
        gang_payloads[wl] = run_gang_sweep_job(gang_sweep_spec(
            wl, POLICIES, dataset=dataset, workload_scale=scale,
        ))
        gang_s[wl] = time.perf_counter() - t0
    gang_total = time.perf_counter() - t_leg

    # Correctness rides along with the timing: every member of every
    # gang must be bit-identical to its per-run payload (the full
    # contract lives in tests/gpu/test_gang_equivalence.py).
    for wl in workloads:
        members = gang_payloads[wl]["members"]
        assert [m["payload"]["policy"] for m in members] == POLICIES, wl
        for member in members:
            policy = member["payload"]["policy"]
            assert _result_of(member["payload"]) == _result_of(
                per_run_payloads[wl, policy]
            ), (wl, policy)

    aggregate = per_run_total / gang_total
    rows = {
        wl: {
            "per_run_s": per_run_s[wl],
            "gang_s": gang_s[wl],
            "speedup": per_run_s[wl] / gang_s[wl],
        }
        for wl in workloads
    }
    _artifact().write_text(json.dumps({
        "benchmark": "sweep_gang_vs_per_run",
        **artifact_provenance(quick=_quick()),
        "config": {
            "dataset": dataset,
            "workload_scale": scale,
            "policies": POLICIES,
            "workloads": workloads,
            "quick": _quick(),
        },
        "per_run_s": per_run_total,
        "gang_s": gang_total,
        "aggregate_speedup": aggregate,
        "workloads_detail": rows,
    }, indent=2) + "\n")

    per_wl = ", ".join(f"{wl}={r['speedup']:.1f}x" for wl, r in rows.items())
    assert aggregate >= floor, (
        f"gang engine only {aggregate:.2f}x over the per-run sweep "
        f"(floor {floor}x; {per_wl})"
    )
