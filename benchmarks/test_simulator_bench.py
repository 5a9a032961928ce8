"""System co-simulator throughput: macro engine vs the stepped oracle.

Guards the tentpole win of the macro-stepping engine
(:mod:`repro.gpu.macro`) on a Fig. 10-style configuration — the pagerank
workload on the LDBC graph swept across the paper's policy matrix:

- ``test_macro_engine_speedup`` pins the macro engine at >=5x the stepped
  oracle across the policy sweep (interleaved best-of-N minima, so
  machine speed cancels), while re-asserting result equivalence on the
  headline aggregates.
- ``test_macro_steps_per_second_budget`` holds an absolute control-steps
  per second floor so the fast path cannot silently regress toward the
  oracle's throughput even if both get slower together.

Each run's measurements are appended to ``BENCH_simulator.json`` (written
to the working directory), giving CI a machine-readable trajectory of the
per-policy speedups.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.policies import make_policy
from repro.gpu.config import GPU_DEFAULT
from repro.gpu.simulator import SystemSimulator
from repro.graph.datasets import get_dataset
from repro.hmc.config import HMC_2_0
from repro.hmc.flow import HmcFlowModel
from repro.telemetry.trend import artifact_provenance
from repro.thermal.model import HmcThermalModel
from repro.thermal.sensor import ThermalSensor
from repro.workloads.registry import get_workload

#: The Fig. 10 policy matrix (thermally active configs carry the guard;
#: ideal-thermal runs too few quanta to time meaningfully).
POLICIES = [
    "non-offloading",
    "naive-offloading",
    "coolpim-sw",
    "coolpim-hw",
]

SPEEDUP_FLOOR = 5.0

#: Absolute budget: committed control quanta per wall-clock second across
#: the sweep. The stepped oracle manages ~2k/s on a development machine;
#: the macro engine ~15k/s. The floor leaves ~3x headroom for slow CI
#: hosts while still catching a fast path that decays toward the oracle.
MACRO_STEPS_PER_S_FLOOR = 5_000.0

ARTIFACT = Path("BENCH_simulator.json")


@pytest.fixture(scope="module")
def fig10_setup():
    """Prebuilt launch + warmed thermal caches, shared by every run.

    Trace generation and the one-time thermal operator/propagator
    assembly would otherwise dominate the short macro runs and hide the
    engine ratio being guarded.
    """
    graph = get_dataset("ldbc")
    workload = get_workload("pagerank", seed=0)
    launch = workload.launch(graph, GPU_DEFAULT)
    thermal = HmcThermalModel(HMC_2_0)
    cache = workload.cache_model(GPU_DEFAULT)

    def build(engine):
        return SystemSimulator(
            cache=cache,
            flow=HmcFlowModel(HMC_2_0),
            thermal=thermal,
            sensor=ThermalSensor(),
            engine=engine,
        )

    # Warm-up: populates the shared step-LU and reduced-propagator caches.
    build("macro").run(launch, make_policy("naive-offloading"))
    return launch, build


def _timed_run(build, launch, engine, policy):
    sim = build(engine)
    t0 = time.perf_counter()
    result = sim.run(launch, make_policy(policy))
    elapsed = time.perf_counter() - t0
    steps = sim.stats.snapshot()["sim.control_steps"]
    return elapsed, result, steps


def _sweep(build, launch, reps=3):
    """Interleaved best-of-``reps`` sweep; returns per-policy rows."""
    rows = {
        p: {"stepped_s": [], "macro_s": [], "steps": 0.0} for p in POLICIES
    }
    for _ in range(reps):
        for policy in POLICIES:
            row = rows[policy]
            t_s, r_s, _ = _timed_run(build, launch, "stepped", policy)
            t_m, r_m, steps = _timed_run(build, launch, "macro", policy)
            row["stepped_s"].append(t_s)
            row["macro_s"].append(t_m)
            row["steps"] = steps
            # Equivalence spot-check on the headline aggregates (the
            # full contract lives in tests/gpu/test_macro_equivalence).
            assert r_m.runtime_s == r_s.runtime_s, policy
            assert r_m.pim_ops == r_s.pim_ops, policy
            assert r_m.thermal_warnings == r_s.thermal_warnings, policy
            assert r_m.shutdowns == r_s.shutdowns, policy
            assert r_m.peak_dram_temp_c == pytest.approx(
                r_s.peak_dram_temp_c, abs=1e-6
            ), policy
    return {
        p: {
            "stepped_s": min(v["stepped_s"]),
            "macro_s": min(v["macro_s"]),
            "speedup": min(v["stepped_s"]) / min(v["macro_s"]),
            "control_steps": v["steps"],
        }
        for p, v in rows.items()
    }


def _emit(rows, aggregate_speedup, macro_steps_per_s):
    payload = {
        "benchmark": "simulator_macro_vs_stepped",
        # One scale only: full-size ldbc, with or without REPRO_BENCH_QUICK.
        **artifact_provenance(quick=False),
        "config": {"workload": "pagerank", "dataset": "ldbc",
                   "policies": POLICIES},
        "aggregate_speedup": aggregate_speedup,
        "macro_steps_per_s": macro_steps_per_s,
        "policies": rows,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def test_macro_engine_speedup(benchmark, fig10_setup):
    """Macro >=5x the stepped oracle across the Fig. 10 policy sweep."""
    launch, build = fig10_setup
    rows = _sweep(build, launch)

    stepped_total = sum(r["stepped_s"] for r in rows.values())
    macro_total = sum(r["macro_s"] for r in rows.values())
    aggregate = stepped_total / macro_total
    total_steps = sum(r["control_steps"] for r in rows.values())
    steps_per_s = total_steps / macro_total
    _emit(rows, aggregate, steps_per_s)

    # Anchor the pytest-benchmark table to the macro sweep itself.
    benchmark(lambda: [
        _timed_run(build, launch, "macro", p) for p in POLICIES
    ])

    per_policy = ", ".join(
        f"{p}={r['speedup']:.1f}x" for p, r in rows.items()
    )
    assert aggregate >= SPEEDUP_FLOOR, (
        f"macro engine only {aggregate:.1f}x faster over the Fig. 10 sweep "
        f"({per_policy})"
    )
    # Every thermally-coupled policy must individually benefit; the
    # warning-band configs commit shorter bursts, so their floor is lower.
    for policy, row in rows.items():
        assert row["speedup"] >= 2.0, (
            f"{policy}: macro only {row['speedup']:.1f}x"
        )


def test_macro_steps_per_second_budget(fig10_setup):
    """Absolute throughput floor for the macro engine."""
    launch, build = fig10_setup
    best = {p: 1e9 for p in POLICIES}
    steps = {}
    for _ in range(3):
        for policy in POLICIES:
            t_m, _, n = _timed_run(build, launch, "macro", policy)
            best[policy] = min(best[policy], t_m)
            steps[policy] = n
    rate = sum(steps.values()) / sum(best.values())
    assert rate >= MACRO_STEPS_PER_S_FLOOR, (
        f"macro engine at {rate:.0f} control steps/s "
        f"(floor {MACRO_STEPS_PER_S_FLOOR:.0f})"
    )
