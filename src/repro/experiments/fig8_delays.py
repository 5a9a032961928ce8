"""Fig. 8 — delay time in the feedback control.

The paper's table:

================  ================  ================
Delay             Software-based    Hardware-based
================  ================  ================
Tthrottle         ~0.1 ms           ~0.1 µs
Tthermal          ~1 ms             ~1 ms
================  ================  ================

Regenerated from the policy implementations, plus a *measured* column:
the simulated time from the first thermal warning to the first effective
offloading-intensity reduction, observed in a live run of each mechanism
on a thermally-intense workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import CoolPimSystem
from repro.core.feedback import FeedbackDelays
from repro.core.hw_dynt import HwDynT
from repro.core.sw_dynt import SwDynT
from repro.experiments.common import (
    RunScale,
    format_table,
    run_with_first_warning,
    scaled_workload,
)
from repro.graph import get_dataset


@dataclass
class DelayResult:
    sw: FeedbackDelays
    hw: FeedbackDelays
    #: mechanism → measured warning→reduction delay (s), None if the run
    #: never warned.
    measured_s: Dict[str, Optional[float]]


def _measure_reaction(policy, workload: str, scale: RunScale) -> Optional[float]:
    """Simulated time from first warning to first fraction drop."""
    system = CoolPimSystem()
    graph = get_dataset(scale.dataset)
    _result, warn_t = run_with_first_warning(
        lambda p: system.run(scaled_workload(workload, scale), graph, p), policy
    )
    if warn_t is None:
        return None
    start_frac = policy.fraction_history[0][1]
    for t, frac in policy.fraction_history:
        if t >= warn_t and frac < start_frac - 1e-9:
            return t - warn_t
    return None


def run(workload: str = "bfs-twc", scale: Optional[RunScale] = None) -> DelayResult:
    scale = scale or RunScale.full()
    measured = {
        "software": _measure_reaction(SwDynT(), workload, scale),
        "hardware": _measure_reaction(HwDynT(), workload, scale),
    }
    return DelayResult(
        sw=FeedbackDelays.software(),
        hw=FeedbackDelays.hardware(),
        measured_s=measured,
    )


def format_result(result: DelayResult) -> str:
    def fmt(seconds: Optional[float]) -> str:
        if seconds is None:
            return "n/a (never warned)"
        if seconds < 1e-4:
            return f"{seconds * 1e6:.1f} us"
        return f"{seconds * 1e3:.2f} ms"

    rows = [
        ("Tthrottle (source throttling delay)",
         fmt(result.sw.throttle_s), fmt(result.hw.throttle_s)),
        ("Tthermal (thermal delay)",
         fmt(result.sw.thermal_s), fmt(result.hw.thermal_s)),
        ("measured warning->reduction",
         fmt(result.measured_s["software"]), fmt(result.measured_s["hardware"])),
    ]
    return format_table(
        ["Delay", "Software-based", "Hardware-based"],
        rows,
        title="Fig. 8 - Delay time in the feedback control",
    )


if __name__ == "__main__":  # pragma: no cover
    print(format_result(run()))
