"""Observability overhead guards on the real control loop.

Tracing and live telemetry are off for every production run, so both
must be effectively free when disabled:

- the disabled global tracer, whose every emit entry point begins with
  one ``enabled`` test, must keep the macro engine's control loop within
  5 % of the same loop under a tracer whose entry points are bare no-ops;
- with a live-telemetry sink attached, both engines' control loops must
  stay within 5 % of the sink-free loop.

Interleaved best-of-N minima are compared, so scheduler noise and cache
warm-up hit both variants symmetrically; a small absolute epsilon absorbs
timer granularity. One macro run of the bench kernel takes ~5 ms, so
every guard times :data:`REPEATS` runs per sample to keep that epsilon
small against the measured time.
"""

import time

import pytest

from repro.obs.tracer import NULL_SPAN, Tracer, get_tracer, set_tracer

OVERHEAD_LIMIT = 0.05
ROUNDS = 7
ABS_EPS_S = 0.002
REPEATS = 20


def _sim_once(engine, sink):
    from repro.core.policies import make_policy
    from repro.gpu.kernel import KernelLaunch
    from repro.gpu.simulator import SystemSimulator
    from repro.hmc.config import HMC_2_0
    from repro.hmc.flow import HmcFlowModel
    from repro.sim.trace import OpBatch, TraceCursor
    from repro.telemetry.live import run_telemetry
    from repro.thermal.cooling import COMMODITY_SERVER
    from repro.thermal.model import HmcThermalModel
    from repro.thermal.sensor import ThermalSensor

    launch = KernelLaunch(
        name="telemetry-bench",
        trace=TraceCursor([
            OpBatch(reads=120_000, writes=60_000, atomics=250_000,
                    compute_cycles=15_000, threads=4096, label=f"e{i}")
            for i in range(8)
        ]),
        total_threads=4096,
    )
    sim = SystemSimulator(
        flow=HmcFlowModel(HMC_2_0),
        thermal=HmcThermalModel(HMC_2_0, cooling=COMMODITY_SERVER),
        sensor=ThermalSensor(),
        engine=engine,
    )
    policy = make_policy("coolpim-hw")
    t0 = time.perf_counter()
    if sink is not None:
        with run_telemetry(sink):
            sim.run(launch, policy)
    else:
        sim.run(launch, policy)
    return time.perf_counter() - t0


def _sim_repeated(engine, make_sink):
    """Wall time of :data:`REPEATS` runs, each with a fresh sink from
    ``make_sink`` (``None``: no telemetry)."""
    return sum(
        _sim_once(engine, make_sink() if make_sink is not None else None)
        for _ in range(REPEATS)
    )


class _BareTracer(Tracer):
    """Disabled tracer whose emit entry points skip even the enabled test."""

    def span(self, *args, **kwargs):
        return NULL_SPAN

    def complete_raw(self, *args, **kwargs):
        pass

    def complete(self, *args, **kwargs):
        pass

    def instant(self, *args, **kwargs):
        pass

    def counter(self, *args, **kwargs):
        pass


def _macro_under(tracer):
    previous = set_tracer(tracer)
    try:
        return _sim_repeated("macro", None)
    finally:
        set_tracer(previous)


def test_disabled_tracer_overhead_below_5_percent():
    disabled = get_tracer()
    assert not disabled.enabled, "benchmark requires tracing off"
    bare = _BareTracer()
    _macro_under(disabled)  # warm-up
    _macro_under(bare)
    instrumented, baseline = [], []
    for _ in range(ROUNDS):
        instrumented.append(_macro_under(disabled))
        baseline.append(_macro_under(bare))
    best_instr, best_base = min(instrumented), min(baseline)
    overhead = best_instr / best_base - 1.0
    print(
        f"\n  macro control loop x{REPEATS}: disabled tracer {best_instr * 1e3:.2f} ms, "
        f"no-op tracer {best_base * 1e3:.2f} ms, overhead {overhead * 100:+.2f}%"
    )
    assert best_instr < best_base * (1 + OVERHEAD_LIMIT) + ABS_EPS_S, (
        f"disabled-tracer overhead {overhead * 100:.1f}% exceeds "
        f"{OVERHEAD_LIMIT * 100:.0f}% budget"
    )


@pytest.mark.parametrize("engine", ["stepped", "macro"])
def test_telemetry_enabled_overhead_below_5_percent(engine):
    from repro.telemetry.live import RunTelemetrySink

    def make_sink():
        return RunTelemetrySink(emit=lambda s: None, max_samples=64)

    _sim_repeated(engine, None)  # warm-up
    _sim_repeated(engine, make_sink)
    enabled, disabled = [], []
    for _ in range(ROUNDS):
        enabled.append(_sim_repeated(engine, make_sink))
        disabled.append(_sim_repeated(engine, None))
    best_on, best_off = min(enabled), min(disabled)
    overhead = best_on / best_off - 1.0
    print(
        f"\n  {engine} x{REPEATS}: telemetry on {best_on * 1e3:.2f} ms, "
        f"off {best_off * 1e3:.2f} ms, overhead {overhead * 100:+.2f}%"
    )
    assert best_on < best_off * (1 + OVERHEAD_LIMIT) + ABS_EPS_S, (
        f"{engine}: telemetry-enabled control loop is "
        f"{overhead * 100:.1f}% slower than disabled "
        f"(budget {OVERHEAD_LIMIT * 100:.0f}%)"
    )
