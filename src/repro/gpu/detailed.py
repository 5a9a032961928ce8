"""Detailed co-simulation: the event-level cube with the thermal loop.

The fluid simulator (:mod:`repro.gpu.simulator`) models traffic as rates;
this mode expands each epoch's post-cache traffic into *individual
transactions* against :class:`repro.hmc.cube.HmcCube` — real packets on
real links, real bank occupancy, functional PIM execution — while
coupling the same thermal model and temperature-phase management
(frequency derating, refresh doubling, ERRSTAT warnings).

Every transaction goes through :meth:`HmcCube.submit`, one at a time,
so the run is the cross-fidelity reference the flow model is checked
against (``tests/gpu/test_detailed.py``), sized for test-scale traces.

Addresses are synthesized per epoch: streaming reads/writes stride
across vaults; atomics scatter over a property region sized by the
epoch's thread count, reproducing hub-style bank reuse on small regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.policies import OffloadPolicy

from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.cube import HmcCube
from repro.hmc.dram_timing import TemperaturePhase, TemperaturePhasePolicy
from repro.hmc.isa import PimInstruction, PimOpcode
from repro.hmc.packet import FLIT_BYTES, PTYPE_CODES, PTYPES_BY_CODE, PacketType, Request
from repro.sim.stats import StatRegistry
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint
from repro.thermal.sensor import ThermalSensor

#: Address-space layout (byte offsets into the cube).
STREAM_REGION = 0
PROPERTY_REGION = 4 << 30  # uncacheable offloading-target data

_CODE_READ = PTYPE_CODES[PacketType.READ64]
_CODE_WRITE = PTYPE_CODES[PacketType.WRITE64]
_CODE_PIM = PTYPE_CODES[PacketType.PIM]

#: All-zero line written by host-atomic writes (streaming writes carry
#: no modelled data).
_ZERO_LINE = b"\0" * 64


@dataclass
class DetailedResult:
    """Aggregates of one detailed run."""

    workload: str
    policy: str
    runtime_s: float
    transactions: int
    pim_ops: int
    host_atomics: int
    peak_dram_temp_c: float
    thermal_warnings: int
    mean_latency_ns: float
    link_flits: int
    #: Achieved external-link bandwidth (all FLITs over the run time).
    ext_bandwidth_gbs: float = 0.0
    #: (time_s, peak_temp_c) thermal samples.
    thermal_trace: List[Tuple[float, float]] = field(default_factory=list)


class DetailedSimulator:
    """Transaction-level co-simulation of one launch."""

    def __init__(
        self,
        gpu: GpuConfig = GPU_DEFAULT,
        hmc_config: HmcConfig = HMC_2_0,
        cache: Optional[CacheModel] = None,
        thermal: Optional[HmcThermalModel] = None,
        sensor: Optional[ThermalSensor] = None,
        phase_policy: Optional[TemperaturePhasePolicy] = None,
        thermal_update_txns: int = 256,
        max_transactions: int = 1_000_000,
        seed: int = 0,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if thermal_update_txns <= 0:
            raise ValueError(f"update interval must be positive: {thermal_update_txns}")
        self.gpu = gpu
        self.hmc_config = hmc_config
        self.cache = cache or CacheModel(gpu)
        self.thermal = thermal or HmcThermalModel(hmc_config)
        self.sensor = sensor or ThermalSensor()
        self.phase_policy = phase_policy or TemperaturePhasePolicy()
        self.thermal_update_txns = thermal_update_txns
        self.max_transactions = max_transactions
        self.seed = seed
        #: Per-simulator stat registry (``detailed.*`` scope); each run()
        #: resets and refills it.
        self.stats = stats if stats is not None else StatRegistry()

    # -- address synthesis ----------------------------------------------------

    def _addresses(self, rng: np.random.Generator, count: int, region: int,
                   span_bytes: int, stride: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.int64)
        slots = max(1, span_bytes // stride)
        return region + rng.integers(0, slots, size=count) * stride

    def _epoch_stream(
        self, rng: np.random.Generator, demand, threads: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Synthesize one epoch's transaction stream as parallel arrays.

        Returns ``(codes, addresses, is_host_member)`` already shuffled
        into issue order. Host atomics appear as read+write pairs; the
        boolean marker tracks their members through the shuffle so
        truncated epochs can account *submitted* host atomics.
        """
        # 32 B-aligned addresses: the vault interleave granularity is
        # 32 B, so coarser strides would alias onto a subset of vaults.
        span = max(4096, threads * 64)
        reads = self._addresses(rng, demand.reads, STREAM_REGION, 64 << 20, 32)
        writes = self._addresses(rng, demand.writes, STREAM_REGION + (1 << 30),
                                 64 << 20, 32)
        hosts = self._addresses(rng, 2 * demand.host_atomics,
                                PROPERTY_REGION, span, 32)
        pims = self._addresses(rng, demand.total_pim, PROPERTY_REGION,
                               span, 16)

        addrs = np.concatenate((reads, writes, hosts, pims))
        codes = np.concatenate((
            np.full(reads.size, _CODE_READ, dtype=np.int64),
            np.full(writes.size, _CODE_WRITE, dtype=np.int64),
            # host atomic = read + write pair
            np.tile([_CODE_READ, _CODE_WRITE], hosts.size // 2).astype(np.int64),
            np.full(pims.size, _CODE_PIM, dtype=np.int64),
        ))
        is_host = np.zeros(addrs.size, dtype=bool)
        is_host[reads.size + writes.size : reads.size + writes.size + hosts.size] = True

        perm = rng.permutation(addrs.size)  # avoid phase-locking with links
        return codes[perm], addrs[perm], is_host[perm]

    # -- main loop --------------------------------------------------------------

    def run(self, launch: KernelLaunch, policy: "OffloadPolicy") -> DetailedResult:
        """Run the launch transaction-by-transaction."""
        launch.trace.rewind()
        self.sensor.reset()
        rng = np.random.default_rng(self.seed)
        cube = HmcCube(self.hmc_config)
        cube.apply_temperature_phase(TemperaturePhase.NORMAL)
        self.thermal.warm_start(TrafficPoint.streaming(240.0))

        policy.begin(launch, now_s=0.0)
        exempt = policy.thermal_exempt

        stats = self.stats.scoped("detailed")
        batch_hist = stats.histogram("epoch_batch_txns", 0.0, 65536.0, 64)
        batch_hist.reset()

        now_ns = 0.0
        txns = 0
        pim_total = 0
        host_members = 0  # submitted host-atomic member transactions
        warnings = 0
        latency_sum = 0.0
        peak_temp = self.thermal.peak_dram_c() if not exempt else self.thermal.ambient_c
        thermal_trace: List[Tuple[float, float]] = []
        last_update_ns = 0.0
        last_flits = 0

        def thermal_update(completed_ns: float) -> None:
            nonlocal last_update_ns, last_flits, peak_temp, warnings
            if exempt:
                return
            dt_ns = completed_ns - last_update_ns
            if dt_ns <= 0:
                return
            flits = cube.links.total_flits()
            ext = (flits - last_flits) * 16 * (2.0 / 3.0) / dt_ns
            internal = ext  # event mode: payload-equivalent approximation
            pim_rate = 0.0  # FU power folded into the internal estimate
            temp = self.thermal.step(
                TrafficPoint(external_gbs=ext, internal_dram_gbs=internal,
                             pim_rate_ops_ns=pim_rate),
                dt_ns * 1e-9,
            )
            peak_temp = max(peak_temp, temp)
            thermal_trace.append((completed_ns * 1e-9, temp))
            phase = self.phase_policy.phase(temp)
            if phase is TemperaturePhase.SHUTDOWN:
                cube.shutdown()
                return
            cube.apply_temperature_phase(phase)
            warning = self.sensor.observe(temp, completed_ns * 1e-9)
            cube.set_thermal_warning(warning)
            if warning:
                warnings += 1
                policy.on_thermal_warning(completed_ns * 1e-9, temp)
            last_update_ns = completed_ns
            last_flits = flits

        while txns < self.max_transactions:
            batch = launch.trace.next()
            if batch is None:
                break
            traffic = self.cache.filter(batch)
            fraction = policy.pim_fraction(now_ns * 1e-9)
            demand = self.cache.demand(traffic, fraction)
            codes, addrs, is_host = self._epoch_stream(rng, demand, batch.threads)
            batch_hist.observe(codes.size)

            # Open-loop issue: the GPU's memory-level parallelism keeps the
            # links fed, so every transaction of the epoch is offered at
            # the epoch start and the cube's queues provide the backpressure.
            # The stream is consumed in windows that end exactly at the
            # thermal-update counter boundaries, where the thermal model
            # couples back into the cube.
            epoch_start = now_ns
            epoch_end = now_ns
            pos = 0
            window = self.thermal_update_txns
            while pos < codes.size and txns < self.max_transactions:
                if cube.is_shutdown:
                    break
                take = min(
                    window - txns % window,
                    codes.size - pos,
                    self.max_transactions - txns,
                )
                sl = slice(pos, pos + take)
                for c, a, h in zip(codes[sl].tolist(), addrs[sl].tolist(),
                                   is_host[sl].tolist()):
                    ptype = PTYPES_BY_CODE[c]
                    if c == _CODE_PIM:
                        # Sec. VI: graph updates are dominated by integer
                        # add atomics.
                        inst = PimInstruction(PimOpcode.ADD_IMM, address=a,
                                              immediate=1)
                        rsp = cube.submit(Request(ptype, address=a, pim=inst),
                                          epoch_start)
                    elif c == _CODE_WRITE:
                        # Only host-atomic writes carry (zero) payloads:
                        # they functionally clear property-region operands.
                        rsp = cube.submit(
                            Request(ptype, address=a), epoch_start,
                            payload=_ZERO_LINE if h else None,
                        )
                    else:
                        rsp = cube.submit(Request(ptype, address=a), epoch_start)
                    latency_sum += rsp.latency_ns
                    epoch_end = max(epoch_end, rsp.complete_time_ns)
                pim_total += int(np.count_nonzero(codes[sl] == _CODE_PIM))
                host_members += int(np.count_nonzero(is_host[sl]))
                txns += take
                pos += take
                if txns % self.thermal_update_txns == 0:
                    thermal_update(epoch_end)
            now_ns = max(now_ns, epoch_end)
            if cube.is_shutdown:
                break

        thermal_update(now_ns)
        return DetailedResult(
            workload=launch.name,
            policy=policy.name,
            runtime_s=now_ns * 1e-9,
            transactions=txns,
            pim_ops=pim_total,
            # Count whole pairs actually submitted: a cap or shutdown can
            # truncate mid-epoch, so the offered demand overstates them.
            host_atomics=host_members // 2,
            peak_dram_temp_c=peak_temp,
            thermal_warnings=warnings,
            mean_latency_ns=latency_sum / txns if txns else 0.0,
            link_flits=cube.links.total_flits(),
            ext_bandwidth_gbs=(
                cube.links.total_flits() * FLIT_BYTES / now_ns if now_ns > 0 else 0.0
            ),
            thermal_trace=thermal_trace,
        )
