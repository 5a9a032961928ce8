"""Simulation substrate: per-run statistics and epoch traces.

Shared by the time-stepped full-system co-simulation
(:mod:`repro.gpu.simulator`, its macro engine) and the event-level
detailed simulator (:mod:`repro.gpu.detailed`):

- :class:`~repro.sim.stats.StatRegistry` — hierarchical per-run counters,
  histograms, and time-weighted averages (counters and histograms are the
  :mod:`repro.telemetry.registry` primitives).
- :mod:`~repro.sim.trace` — operation-batch records emitted by workloads and
  consumed by the GPU interval model.
"""

from repro.sim.stats import StatRegistry, TimeWeightedStat
from repro.sim.trace import OpBatch, TraceCursor

__all__ = [
    "OpBatch",
    "StatRegistry",
    "TimeWeightedStat",
    "TraceCursor",
]
