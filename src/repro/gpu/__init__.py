"""Host GPU model and the full-system co-simulation.

The GPU is modelled at interval granularity (DESIGN.md §2): workloads emit
per-epoch operation batches, the cache model filters them into memory
traffic, the SM model supplies a compute-time floor, and
:class:`~repro.gpu.simulator.SystemSimulator` closes the loop between the
GPU, the HMC flow model, the thermal model, and a CoolPIM offloading
policy.
"""

from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import SimulationResult, SystemSimulator

__all__ = [
    "CacheModel",
    "GPU_DEFAULT",
    "GpuConfig",
    "KernelLaunch",
    "SimulationResult",
    "SystemSimulator",
]
