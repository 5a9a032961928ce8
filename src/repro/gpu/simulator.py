"""Full-system co-simulation: GPU + HMC flow model + thermal + policy.

The simulator drains each workload epoch as a fluid: every control quantum
(default 25 µs) it asks the policy for the current PIM offloading
fraction, splits the epoch's remaining atomics between host execution and
PIM packets, computes the served share from the HMC flow model's
bottleneck analysis, integrates the thermal RC network with the interval's
traffic-driven power, updates the temperature phase (DRAM derating), and
delivers thermal warnings to the policy — closing CoolPIM's feedback loop
(Fig. 6).

Timescales follow the paper: DRAM phases derate service by 20 % per phase
above 85 °C, the sensor samples at 100 µs, Tthrottle/Tthermal delays live
inside the policies, and shutdown (>105 °C) costs a tens-of-seconds
recovery stall (Sec. III-A).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # avoid a circular import; policies live in repro.core
    from repro.core.policies import OffloadPolicy

from repro.gpu.caches import CacheModel, MemoryTraffic
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.gpu.sm import SmArray
from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.dram_timing import TemperaturePhase
from repro.hmc.flow import HmcFlowModel, TrafficDemand
from repro.obs.tracer import get_tracer
from repro.sim.stats import StatRegistry
from repro.sim.trace import OpBatch
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint
from repro.thermal.sensor import ThermalSensor

#: Shutdown recovery stall (s): the prototype needs tens of seconds to
#: re-enable after an overheat stop, and loses its contents (Sec. III-A).
SHUTDOWN_RECOVERY_S = 20.0

#: Engine names kept for clients of the removed lockstep gang engine,
#: whose results were bit-equal to macro.
ENGINE_ALIASES = {"gang": "macro"}


@dataclass
class SimulationResult:
    """Aggregates of one (workload, policy) run."""

    workload: str
    policy: str
    runtime_s: float
    link_bytes: int
    data_bytes: int
    pim_ops: int
    host_atomics: int
    total_atomics: int
    peak_dram_temp_c: float
    thermal_warnings: int
    shutdowns: int
    phase_time_s: dict
    #: Package energy over the run (J), including hot-phase DRAM penalty.
    package_energy_j: float = 0.0
    #: Heat-sink fan energy over the run (J).
    fan_energy_j: float = 0.0
    #: (time_s, peak_temp_c, pim_rate_ops_ns, pim_fraction) samples.
    timeline: List[Tuple[float, float, float, float]] = field(default_factory=list)

    @property
    def total_energy_j(self) -> float:
        """Package + cooling energy (J) — the efficiency metric PIM is
        meant to improve."""
        return self.package_energy_j + self.fan_energy_j

    @property
    def avg_power_w(self) -> float:
        return self.total_energy_j / self.runtime_s if self.runtime_s > 0 else 0.0

    def energy_ratio(self, baseline: "SimulationResult") -> float:
        """Total energy normalized to ``baseline``."""
        return (
            self.total_energy_j / baseline.total_energy_j
            if baseline.total_energy_j > 0
            else 0.0
        )

    @property
    def avg_link_bandwidth_gbs(self) -> float:
        return self.link_bytes / self.runtime_s / 1e9 if self.runtime_s > 0 else 0.0

    @property
    def avg_pim_rate_ops_ns(self) -> float:
        """Average PIM offloading rate over the run (Fig. 12 metric)."""
        return self.pim_ops / (self.runtime_s * 1e9) if self.runtime_s > 0 else 0.0

    @property
    def offload_fraction(self) -> float:
        return self.pim_ops / self.total_atomics if self.total_atomics else 0.0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of this run relative to ``baseline`` (Fig. 10 metric)."""
        if self.runtime_s <= 0:
            raise ValueError("runtime must be positive for a speedup")
        return baseline.runtime_s / self.runtime_s

    def bandwidth_ratio(self, baseline: "SimulationResult") -> float:
        """Link-traffic bandwidth normalized to ``baseline`` (Fig. 11)."""
        base = baseline.avg_link_bandwidth_gbs
        return self.avg_link_bandwidth_gbs / base if base > 0 else 0.0

    def to_dict(self, include_timeline: bool = False) -> dict:
        """JSON-serializable summary of the run."""
        out = {
            "workload": self.workload,
            "policy": self.policy,
            "runtime_s": self.runtime_s,
            "link_bytes": self.link_bytes,
            "data_bytes": self.data_bytes,
            "pim_ops": self.pim_ops,
            "host_atomics": self.host_atomics,
            "total_atomics": self.total_atomics,
            "offload_fraction": self.offload_fraction,
            "avg_pim_rate_ops_ns": self.avg_pim_rate_ops_ns,
            "avg_link_bandwidth_gbs": self.avg_link_bandwidth_gbs,
            "peak_dram_temp_c": self.peak_dram_temp_c,
            "thermal_warnings": self.thermal_warnings,
            "shutdowns": self.shutdowns,
            "phase_time_s": dict(self.phase_time_s),
            "package_energy_j": self.package_energy_j,
            "fan_energy_j": self.fan_energy_j,
            "total_energy_j": self.total_energy_j,
            "avg_power_w": self.avg_power_w,
        }
        if include_timeline:
            out["timeline"] = [list(p) for p in self.timeline]
        return out


class _EpochState:
    """Mutable fluid remainder of one epoch."""

    def __init__(self, batch: OpBatch, traffic: MemoryTraffic) -> None:
        self.reads = float(traffic.reads)
        self.writes = float(traffic.writes)
        self.atomics = float(traffic.atomics)
        self.atomics_ret = float(traffic.atomics_with_return)
        self.compute_cycles = float(batch.compute_cycles)
        self.divergence = batch.divergent_warp_ratio
        self.threads = batch.threads

    @property
    def drained(self) -> bool:
        return (
            self.reads < 0.5
            and self.writes < 0.5
            and self.atomics < 0.5
            and self.compute_cycles < 1.0
        )

    def as_batch(self) -> OpBatch:
        return OpBatch(
            reads=int(self.reads),
            writes=int(self.writes),
            atomics=int(self.atomics),
            atomics_with_return=min(int(self.atomics_ret), int(self.atomics)),
            compute_cycles=int(self.compute_cycles),
            threads=self.threads,
            divergent_warp_ratio=self.divergence,
        )

    def drain(self, fraction: float) -> None:
        keep = 1.0 - fraction
        self.reads *= keep
        self.writes *= keep
        self.atomics *= keep
        self.atomics_ret *= keep
        self.compute_cycles *= keep


class SystemSimulator:
    """Co-simulation engine for one GPU + one HMC 2.0 cube."""

    def __init__(
        self,
        gpu: GpuConfig = GPU_DEFAULT,
        hmc_config: HmcConfig = HMC_2_0,
        cache: Optional[CacheModel] = None,
        flow: Optional[HmcFlowModel] = None,
        thermal: Optional[HmcThermalModel] = None,
        sensor: Optional[ThermalSensor] = None,
        control_dt_s: float = 25e-6,
        timeline_dt_s: float = 250e-6,
        warm_start: Optional[TrafficPoint] = None,
        saturation_threads: int = 1500,
        stats: Optional[StatRegistry] = None,
        engine: str = "macro",
        scenario=None,
    ) -> None:
        if control_dt_s <= 0:
            raise ValueError(f"control quantum must be positive: {control_dt_s}")
        engine = ENGINE_ALIASES.get(engine, engine)
        if engine not in ("macro", "stepped"):
            raise ValueError(
                f"engine must be 'macro' or 'stepped', got {engine!r}"
            )
        if saturation_threads <= 0:
            raise ValueError(
                f"saturation_threads must be positive: {saturation_threads}"
            )
        self.gpu = gpu
        self.hmc_config = hmc_config
        self.cache = cache or CacheModel(gpu)
        self.flow = flow or HmcFlowModel(hmc_config)
        self.thermal = thermal or HmcThermalModel(hmc_config)
        self.sensor = sensor or ThermalSensor()
        self.sm = SmArray(gpu)
        self.control_dt_s = control_dt_s
        self.timeline_dt_s = timeline_dt_s
        #: Concurrent memory streams needed to saturate the memory system
        #: (peak bandwidth x memory latency / line size ~ 1500 in-flight
        #: 64 B requests): epochs with smaller frontiers achieve
        #: proportionally less bandwidth. This is what keeps
        #: small-frontier graphs (road networks) thermally benign.
        self.saturation_threads = saturation_threads
        # The evaluation measures kernels from a query stream on a busy
        # device, not a cold one: warm-start at a moderately-loaded steady
        # point (Fig. 14's thermal warning lands ~2.5 ms into the run).
        self.warm_start = warm_start or TrafficPoint.streaming(240.0)
        #: Per-simulator stat registry; each run() resets and refills the
        #: ``sim.*`` stats, so the last run's numbers are always current.
        self.stats = stats if stats is not None else StatRegistry()
        #: Execution engine: ``"macro"`` (vectorized bursts between
        #: horizon events, the default) or ``"stepped"`` (the scalar
        #: reference loop, kept as the equivalence oracle).
        self.engine = engine
        #: Optional :class:`~repro.scenarios.Scenario` fault-injection
        #: stream, applied identically by both engines through one
        #: per-run :class:`~repro.scenarios.ScenarioDriver` (the single
        #: injection hook — nothing else in the loop knows about faults).
        self.scenario = scenario

    def _scenario_driver(self):
        """Fresh per-run driver for the configured scenario (or None)."""
        if self.scenario is None:
            return None
        from repro.scenarios.driver import ScenarioDriver

        return ScenarioDriver(self.scenario, self)

    # -- helpers -----------------------------------------------------------------

    def _mem_demand(
        self, state: _EpochState, pim_fraction: float
    ) -> Tuple[TrafficDemand, int]:
        """Post-cache demand plus the rounded atomic count feeding it.

        The atomic count is returned so the serving loop can keep an
        exact pre-coalescing conservation ledger (assigned = PIM + host).
        """
        atomics = max(0, int(round(state.atomics)))
        traffic = MemoryTraffic(
            reads=max(0, int(round(state.reads))),
            writes=max(0, int(round(state.writes))),
            atomics=atomics,
            atomics_with_return=min(
                int(round(state.atomics_ret)), int(round(state.atomics))
            ),
        )
        return self.cache.demand(traffic, pim_fraction), atomics

    # -- main entry -----------------------------------------------------------------

    def run(self, launch: KernelLaunch, policy: "OffloadPolicy") -> SimulationResult:
        """Execute the launch under ``policy``; returns run aggregates."""
        wall_t0 = _time.perf_counter()
        if self.engine == "macro":
            from repro.gpu.macro import MacroEngine

            result = MacroEngine(self).run(launch, policy)
        else:
            result = self._run_stepped(launch, policy)
        self._record_run_telemetry(result, _time.perf_counter() - wall_t0)
        return result

    def _record_run_telemetry(
        self, result: SimulationResult, wall_s: float
    ) -> None:
        """Fold run aggregates into the process-wide telemetry registry.

        One handful of counter bumps per *run* (never per step), so the
        fleet-level series — scraped at ``GET /metrics`` and shipped
        from pool workers through the scheduler's delta pipe — cost
        nothing measurable against the control loop.
        """
        from repro.telemetry import get_registry

        reg = get_registry()
        labels = {"engine": self.engine}
        reg.counter(
            "repro_sim_runs_total", "Completed simulator runs", ("engine",)
        ).labels(**labels).inc()
        reg.counter(
            "repro_sim_control_steps_total",
            "Control quanta executed across all runs", ("engine",),
        ).labels(**labels).inc(
            self.stats.scoped("sim").counter("control_steps").value
        )
        reg.counter(
            "repro_sim_thermal_warnings_total",
            "Thermal warnings delivered across all runs", ("engine",),
        ).labels(**labels).inc(result.thermal_warnings)
        reg.counter(
            "repro_sim_shutdowns_total",
            "Overheat shutdowns across all runs", ("engine",),
        ).labels(**labels).inc(result.shutdowns)
        reg.histogram(
            "repro_sim_run_wall_seconds",
            "Wall-clock duration of simulator runs", ("engine",),
        ).labels(**labels).observe(wall_s)

    def _run_stepped(
        self, launch: KernelLaunch, policy: "OffloadPolicy"
    ) -> SimulationResult:
        """Scalar reference engine: one control quantum per iteration."""
        launch.trace.rewind()
        self.sensor.reset()
        scen = self._scenario_driver()
        if scen is not None:
            scen.begin()
        exempt = policy.thermal_exempt

        # Device state before the kernel launches (ideal-thermal runs pin
        # the cube at ambient, so no warm-up is needed).
        if not exempt:
            self.thermal.warm_start(self.warm_start)
        self.flow.phase = TemperaturePhase.NORMAL
        self.flow.set_thermal_warning(False)

        policy.bind(self)
        policy.begin(launch, now_s=0.0)

        tracer = get_tracer()
        traced = tracer.enabled
        # Live telemetry: resolved once per run; when no sink is
        # installed the per-step cost is a single None test (the same
        # discipline as the tracer's NULL_SPAN fast path).
        from repro.telemetry.live import get_run_sink

        sink = get_run_sink()
        total_epochs = max(1, len(launch.trace))
        wall_t0 = _time.perf_counter()
        stats = self.stats.scoped("sim")
        dt_hist = stats.histogram(
            "control_dt_ns", 0.0, self.control_dt_s * 1e9 * 1.01, 64
        )
        dt_hist.reset()
        frac_tw = stats.time_weighted("pim_fraction")
        frac_tw.reset(initial=0.0, start_time=0.0)
        for name in (
            "epochs", "control_steps", "thermal_solver_steps",
            "thermal_warnings", "shutdowns", "pim_ops", "host_atomics",
            "host_atomics_assigned",
        ):
            stats.counter(name).reset()
        epochs = 0
        control_steps = 0
        thermal_steps = 0

        now_s = 0.0
        link_bytes = 0
        data_bytes = 0
        pim_ops_total = 0
        host_atomics_total = 0
        host_assigned_total = 0
        atomics_total = 0
        warnings = 0
        shutdowns = 0
        peak_temp = (
            self.thermal.peak_dram_c() if not exempt else self.thermal.ambient_c
        )
        phase_time = {p.name: 0.0 for p in TemperaturePhase}
        timeline: List[Tuple[float, float, float, float]] = []
        next_sample = 0.0
        thermal_debt_s = 0.0
        package_energy_j = 0.0
        fan_power_w = (
            self.thermal.cooling.fan_power_w() if not exempt else 0.0
        )

        while True:
            batch = launch.trace.next()
            if batch is None:
                break
            if scen is not None:
                batch = scen.transform_batch(batch)
            atomics_total += batch.atomics
            traffic = self.cache.filter(batch)
            state = _EpochState(batch, traffic)
            epochs += 1
            epoch_t0 = _time.perf_counter() if traced else 0.0
            epoch_sim0 = now_s
            # Integer work ledgers: the fluid drain rounds per step, so
            # its serving sums can drift from the epoch totals; the final
            # control step flushes whatever the ledgers still hold.
            rem_reads = traffic.reads
            rem_writes = traffic.writes
            rem_atomics = traffic.atomics

            while (not state.drained or rem_atomics > 0
                   or rem_reads > 0 or rem_writes > 0):
                if scen is not None:
                    scen.apply_due(now_s)
                fraction = policy.pim_fraction(now_s)
                if fraction != frac_tw.value:
                    frac_tw.update(fraction, now_s)
                demand, atomics_dem = self._mem_demand(state, fraction)
                t_mem_ns = self.flow.service_time_ns(demand)
                # Small frontiers can't keep enough requests in flight to
                # saturate the memory system.
                mlp = min(1.0, state.threads / self.saturation_threads)
                if mlp > 0.0:
                    t_mem_ns /= mlp
                t_cmp_ns = self.sm.compute_time_ns(state.as_batch())
                # Host-executed atomics serialize at the L2 ROP units.
                t_atm_ns = demand.host_atomics / self.gpu.host_atomic_ops_per_ns
                t_total_ns = max(t_mem_ns, t_cmp_ns, t_atm_ns, 1.0)

                dt_ns = min(self.control_dt_s * 1e9, t_total_ns)
                share = dt_ns / t_total_ns
                final_step = share >= 1.0
                served_reads = min(int(round(demand.reads * share)), rem_reads)
                served_writes = min(int(round(demand.writes * share)), rem_writes)
                served_host = int(round(demand.host_atomics * share))
                served_pim = int(round(demand.pim_ops * share))
                served_pim_ret = int(round(demand.pim_ops_ret * share))
                host_raw = int(round((atomics_dem - demand.total_pim) * share))
                # Clamp against the ledger (rounding drift), cutting the
                # host accounting before offloaded traffic.
                over = served_pim + served_pim_ret + host_raw - rem_atomics
                if over > 0:
                    cut = min(over, host_raw)
                    host_raw -= cut
                    over -= cut
                    cut = min(over, served_pim)
                    served_pim -= cut
                    served_pim_ret -= over - cut
                if final_step:
                    # Residual flush: whatever the integer ledgers still
                    # hold is served in this last quantum instead of being
                    # dropped with the sub-0.5 fluid remainder.
                    served_reads = rem_reads
                    served_writes = rem_writes
                    leftover = rem_atomics - (served_pim + served_pim_ret
                                              + host_raw)
                    extra_pim = min(leftover, int(round(leftover * fraction)))
                    extra_host = leftover - extra_pim
                    served_pim += extra_pim
                    host_raw += extra_host
                    served_host += int(round(
                        extra_host * self.cache.host_atomic_coalescing
                    ))
                rem_reads -= served_reads
                rem_writes -= served_writes
                rem_atomics -= served_pim + served_pim_ret + host_raw
                host_assigned_total += host_raw
                served = TrafficDemand(
                    reads=served_reads,
                    writes=served_writes,
                    host_atomics=served_host,
                    pim_ops=served_pim,
                    pim_ops_ret=served_pim_ret,
                )
                state.drain(share)

                # Thermal integration with this interval's traffic power.
                # Steps run on the fixed control quantum (one cached LU);
                # sub-quantum intervals accumulate as debt and are flushed
                # with the current traffic point — at most one quantum of
                # lag versus the 100 µs sensor period.
                ext_gbs, int_gbs, pim_rate = self.flow.traffic_rates(served, dt_ns)
                if not exempt:
                    traffic_point = TrafficPoint(
                        external_gbs=ext_gbs,
                        internal_dram_gbs=int_gbs,
                        pim_rate_ops_ns=pim_rate,
                    )
                    thermal_debt_s += dt_ns * 1e-9
                    temp_c = self.thermal.peak_dram_c()
                    energy_scale = self.flow.policy.dram_energy_scale(self.flow.phase)
                    while thermal_debt_s >= self.control_dt_s:
                        temp_c = self.thermal.step(
                            traffic_point,
                            self.control_dt_s,
                            dram_energy_scale=energy_scale,
                        )
                        thermal_debt_s -= self.control_dt_s
                        thermal_steps += 1
                    peak_temp = max(peak_temp, temp_c)
                    phase = self.flow.update_phase(temp_c)
                    warning = self.sensor.observe(temp_c, now_s)
                    self.flow.set_thermal_warning(warning)
                    if warning:
                        warnings += 1
                        if traced:
                            tracer.instant(
                                "sim.thermal_warning", cat="sim",
                                sim_time_ns=now_s * 1e9, clock="sim",
                                temp_c=self.sensor.last_temp_c,
                            )
                        policy.on_thermal_warning(now_s, self.sensor.last_temp_c)
                    if phase is TemperaturePhase.SHUTDOWN:
                        # Conservative overheat policy: full stop, long
                        # recovery, restart cold (Sec. III-A).
                        shutdowns += 1
                        if traced:
                            tracer.instant(
                                "sim.shutdown", cat="sim",
                                sim_time_ns=now_s * 1e9, clock="sim",
                                temp_c=temp_c,
                            )
                        now_s += SHUTDOWN_RECOVERY_S
                        phase_time[TemperaturePhase.SHUTDOWN.name] += (
                            SHUTDOWN_RECOVERY_S
                        )
                        self.thermal.warm_start(TrafficPoint.idle())
                        self.flow.phase = TemperaturePhase.NORMAL
                        self.sensor.reset()
                        self.flow.set_thermal_warning(False)
                else:
                    phase = TemperaturePhase.NORMAL
                    temp_c = self.thermal.ambient_c
                    traffic_point = TrafficPoint(
                        external_gbs=ext_gbs,
                        internal_dram_gbs=int_gbs,
                        pim_rate_ops_ns=pim_rate,
                    )
                    energy_scale = 1.0

                package_energy_j += (
                    self.thermal.power.package_total_w(traffic_point, energy_scale)
                    * dt_ns * 1e-9
                )
                self.flow.record(served, dt_ns)
                link_bytes += served.link_bytes()
                data_bytes += served.external_data_bytes()
                pim_ops_total += served.total_pim
                host_atomics_total += served.host_atomics
                phase_time[phase.name] += dt_ns * 1e-9
                now_s += dt_ns * 1e-9
                control_steps += 1
                dt_hist.observe(dt_ns)

                if now_s >= next_sample:
                    timeline.append((now_s, temp_c, pim_rate, fraction))
                    # Snap to the fixed grid: the next sample is due at the
                    # first grid point strictly after now, so sample spacing
                    # does not drift with step size (Fig. 14 comparability).
                    next_sample = (
                        math.floor(now_s / self.timeline_dt_s) + 1.0
                    ) * self.timeline_dt_s

                if sink is not None and now_s >= sink.next_due_s:
                    pool = getattr(policy, "pool", None)
                    sink.emit_sample({
                        "t_s": now_s,
                        "progress": launch.trace.position / total_epochs,
                        "dram_c": temp_c,
                        "pim_fraction": fraction,
                        "tokens": pool.size if pool is not None else None,
                        "warnings": warnings,
                        "shutdowns": shutdowns,
                        "avg_link_gbs": (
                            link_bytes / now_s / 1e9 if now_s > 0 else 0.0
                        ),
                        "phase": phase.name,
                        "engine": "stepped",
                    })

            if traced:
                tracer.complete(
                    "gpu.epoch", epoch_t0, _time.perf_counter(), cat="gpu",
                    label=batch.label, atomics=batch.atomics,
                    threads=batch.threads,
                    sim_start_s=epoch_sim0, sim_end_s=now_s,
                )

        if scen is not None:
            # Restore the shared thermal/flow/sensor models to nominal:
            # CoolPimSystem reuses them across runs.
            scen.finish()
        # Tail of the last fraction level, so the time-weighted mean
        # covers the full run.
        if now_s > 0.0:
            frac_tw.update(frac_tw.value, now_s)
        stats.counter("epochs").inc(epochs)
        stats.counter("control_steps").inc(control_steps)
        stats.counter("thermal_solver_steps").inc(thermal_steps)
        stats.counter("thermal_warnings").inc(warnings)
        stats.counter("shutdowns").inc(shutdowns)
        stats.counter("pim_ops").inc(pim_ops_total)
        stats.counter("host_atomics").inc(host_atomics_total)
        stats.counter("host_atomics_assigned").inc(host_assigned_total)
        if traced:
            tracer.complete(
                "sim.run", wall_t0, _time.perf_counter(), cat="sim",
                workload=launch.name, policy=policy.name,
                epochs=epochs, control_steps=control_steps,
                warnings=warnings, shutdowns=shutdowns,
                sim_runtime_s=now_s,
            )

        return SimulationResult(
            workload=launch.name,
            policy=policy.name,
            runtime_s=now_s,
            link_bytes=link_bytes,
            data_bytes=data_bytes,
            pim_ops=pim_ops_total,
            host_atomics=host_atomics_total,
            total_atomics=atomics_total,
            peak_dram_temp_c=peak_temp,
            thermal_warnings=warnings,
            shutdowns=shutdowns,
            phase_time_s=phase_time,
            package_energy_j=package_energy_j,
            fan_energy_j=fan_power_w * now_s,
            timeline=timeline,
        )
