"""Sim-clock counter tracks from a finished simulation timeline.

A run's sampled timeline (``SimulationResult.timeline`` — ``(time_s,
temp_c, pim_rate, pim_fraction)`` tuples) becomes the temperature /
PIM-rate / offload-fraction tracks on the **sim clock** lane of a trace,
timestamped in simulated microseconds. ``repro trace`` and the API's
trace artifact both call :func:`replay_timeline` after the run finishes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.obs.tracer import Tracer, get_tracer

TimelineRow = Tuple[float, float, float, float]


def replay_timeline(
    timeline: Sequence[TimelineRow],
    tracer: Optional[Tracer] = None,
) -> Dict[str, float]:
    """Emit one sample per timeline row on each sim-clock track.

    Returns ``{"events": n, "sim_span_s": t}``. With tracing enabled,
    every row leaves one ``sim.temp_c``, ``sim.pim_rate_ops_ns`` and
    ``sim.pim_fraction`` counter sample at its simulated time.
    """
    # Explicit None check: Tracer defines __len__, so an empty tracer is
    # falsy and ``tracer or get_tracer()`` would silently drop it.
    tr = tracer if tracer is not None else get_tracer()
    last_ns = 0.0
    for time_s, temp_c, pim_rate, fraction in timeline:
        sim_ns = time_s * 1e9
        last_ns = max(last_ns, sim_ns)
        tr.counter("sim.temp_c", temp_c, cat="sim", sim_time_ns=sim_ns, clock="sim")
        tr.counter(
            "sim.pim_rate_ops_ns", pim_rate, cat="sim", sim_time_ns=sim_ns, clock="sim"
        )
        tr.counter(
            "sim.pim_fraction", fraction, cat="sim", sim_time_ns=sim_ns, clock="sim"
        )
    return {"events": float(len(timeline)), "sim_span_s": last_ns / 1e9}
