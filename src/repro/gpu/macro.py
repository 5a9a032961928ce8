"""Macro-stepping fast path for :class:`~repro.gpu.simulator.SystemSimulator`.

The scalar reference engine advances one 25 µs control quantum per Python
iteration, paying a full sparse thermal solve (~0.5 ms) plus the
interval-model arithmetic every step. Between *horizon events* nothing in
the loop actually branches: the policy's offloading fraction is constant
(policies publish a :meth:`~repro.core.policies.OffloadPolicy.fraction_horizon`),
the temperature phase holds, and the sensor only matters at its 100 µs
sample points. This engine exploits that:

1. **Speculate** — run a tight pure-Python replica of the control loop for
   up to a few thousand quanta, recording every per-step quantity. The
   replica performs *bit-identical arithmetic* (same operations, same
   order, same rounding) as the scalar loop, so committed integers and
   times are exactly what the reference engine would produce. Epoch
   boundaries are crossed freely; the trace cursor is restored with
   :meth:`~repro.sim.trace.TraceCursor.seek` on abort.
2. **March** — advance the thermal state for all speculated quanta at once
   in the reduced eigenbasis (:mod:`repro.thermal.propagator`): one small
   dense recurrence plus one GEMM for per-quantum peak DRAM temperatures,
   instead of one sparse solve per quantum.
3. **Validate** — check the marched temperatures keep the temperature
   phase, sensor thresholds, and warning state unchanged, with a
   ``MARGIN_C`` guard band (the reduced trajectory is accurate to ~1e-9 °C,
   the margin is 1e-6 °C). The first violating quantum truncates the burst.
4. **Commit** — apply the validated prefix: bulk integer aggregates,
   pre-accumulated float totals (energy, busy time, phase time — simulated
   with the same sequential adds the scalar loop performs), the rare
   events (sensor samples, timeline points, warning instants), and one
   reconstructed thermal state.

Steps the burst cannot prove safe — phase/threshold crossings, thermal
shutdowns, warning deliveries the policy may act on, pending-fraction
applications — fall back to the scalar step, which is a verbatim replica
of the reference loop body. Temperatures are reproduced to ~1e-9 °C
(within the documented 1e-6 °C tolerance); every integer aggregate, event
count, event instant, and timeline/fraction value is exact.
"""

from __future__ import annotations

import math
import time as _time
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.policies import OffloadPolicy
    from repro.gpu.simulator import SystemSimulator

from repro.gpu.kernel import KernelLaunch
from repro.gpu.sm import DIVERGENCE_SERIALIZATION
from repro.hmc.dram_timing import TemperaturePhase
from repro.hmc.flow import TrafficDemand
from repro.hmc.packet import FLIT_BYTES, PacketType, flit_cost
from repro.obs.tracer import get_tracer
from repro.sim.trace import OpBatch
from repro.thermal.power import FU_WIDTH_BITS, TrafficPoint

#: Minimum quanta worth committing as a burst; a zero-length validated
#: prefix (the very next quantum crosses a threshold) falls back to the
#: scalar step, which decides with the exact solver.
MIN_BURST = 1

#: Speculation window bounds (quanta). The window starts small, grows
#: geometrically on fully-committed bursts, and collapses after a
#: validation truncation (the trajectory is near a threshold).
SPEC_CAP_MIN = 64
SPEC_CAP_MAX = 4096

#: Guard band (°C) between a marched temperature and any decision
#: threshold (phase boundary, sensor warn/clear). The reduced trajectory
#: tracks the exact solver to ~1e-9 °C, so a quantum within the band is
#: simply re-run exactly rather than risking a flipped decision.
MARGIN_C = 1e-6

#: Floor of the speculation window after a validation truncation: near a
#: threshold the window tracks ~2× the last committed length, so failed
#: speculation work stays proportional to committed work.
SPEC_CAP_NEAR = 8

#: Cap on scalar steps forced after a validation failure (exponential
#: backoff while the trajectory hugs a threshold).
MAX_BACKOFF_STEPS = 8


class MacroEngine:
    """One-shot macro-step executor bound to a :class:`SystemSimulator`.

    Constructed per :meth:`SystemSimulator.run` call; holds the run's
    mutable state as attributes so the burst/scalar paths share it.
    """

    def __init__(self, sim: "SystemSimulator") -> None:
        self.sim = sim
        # Interval-model constants hoisted for the speculation loop. Each
        # is the same expression the scalar loop evaluates per step, so
        # the hoisted value is bit-identical.
        self.rq_r, self.rs_r = flit_cost(PacketType.READ64)
        self.rq_w, self.rs_w = flit_cost(PacketType.WRITE64)
        self.rq_p, self.rs_p = flit_cost(PacketType.PIM)
        self.rq_pr, self.rs_pr = flit_cost(PacketType.PIM_RET)
        self.quantum_ns = sim.control_dt_s * 1e9
        cache = sim.cache
        self.coal = cache.host_atomic_coalescing
        self.writeback = cache.coherence_mode == "writeback"
        self.dirty = cache.pei_dirty_fraction
        self.atomic_rate = sim.gpu.host_atomic_ops_per_ns
        self.peak_ipns = sim.gpu.peak_warp_instructions_per_ns
        self.link_equiv = sim.flow.LINK_POWER_PAYLOAD_EQUIV
        pm = sim.thermal.power
        self.le = pm.logic_energy_per_bit
        self.de = pm.dram_energy_per_bit
        self.fe128 = pm.fu_energy_per_bit * FU_WIDTH_BITS
        self.sl_w = pm.static_logic_w
        self.sd_w = pm.static_dram_total_w

        # Burst machinery.
        self.spec_cap = SPEC_CAP_MIN
        self.skip = 0
        self.fail_streak = 0
        self._prop = None
        self._prop_bad = False
        #: Per-run certified peak readout (created with the propagator):
        #: its mode/candidate state depends on the run's burst history.
        self._reader = None
        # Reduced-state cache: eigen-coordinates of the thermal state and
        # its peak DRAM temperature, valid while no exact solver step has
        # touched the model since the last burst commit. While valid,
        # bursts skip both the projection and the full-state
        # reconstruction; the node state is materialized lazily.
        self._z = None
        self._z_peak = 0.0

    # -- epoch bookkeeping -------------------------------------------------

    def _open_epoch(self, batch: OpBatch, sim0: float, traffic=None) -> None:
        sim = self.sim
        self.batch = batch
        self.atomics_total += batch.atomics
        if traffic is None:
            traffic = sim.cache.filter(batch)
        from repro.gpu.simulator import _EpochState

        self.state = _EpochState(batch, traffic)
        self.rem_reads = traffic.reads
        self.rem_writes = traffic.writes
        self.rem_atomics = traffic.atomics
        self.epochs += 1
        self.epoch_sim0 = sim0
        self.epoch_wall0 = _time.perf_counter() if self.traced else 0.0
        # Per-epoch hoists (constant across the epoch's control steps).
        self.mlp = min(1.0, self.state.threads / sim.saturation_threads)
        self.inflation = (
            1.0 + (DIVERGENCE_SERIALIZATION - 1.0) * self.state.divergence
        )

    def _close_epoch(self, end_s: float) -> None:
        if self.traced:
            self.tracer.complete(
                "gpu.epoch", self.epoch_wall0, _time.perf_counter(),
                cat="gpu", label=self.batch.label,
                atomics=self.batch.atomics, threads=self.batch.threads,
                sim_start_s=self.epoch_sim0, sim_end_s=end_s,
            )
        self.state = None

    def _epoch_pending(self) -> bool:
        s = self.state
        return (
            not s.drained
            or self.rem_atomics > 0
            or self.rem_reads > 0
            or self.rem_writes > 0
        )

    def _materialize(self) -> None:
        """Install the cached reduced state into the thermal model.

        Called before anything reads or advances the node-temperature
        state directly (scalar steps, end of run). Afterwards the cache is
        dropped: the exact solver is about to evolve the state, so the
        next burst re-projects.
        """
        if self._z is not None:
            self.sim.thermal.set_transient_state(
                self._prop.reconstruct(self._z)
            )
            self._z = None

    def _phase_band(self, phase: TemperaturePhase) -> Tuple[Optional[float], float]:
        """(lower, upper) temperature bounds within which ``phase`` holds.

        ``None`` lower bound means unbounded below. The burst validator
        requires every marched temperature to stay inside the band (with
        margin) so the phase — and with it every hoisted capacity and the
        energy scale — provably never changes mid-burst.
        """
        pol = self.sim.flow.policy
        if pol.conservative_shutdown:
            return None, pol.conservative_shutdown_c
        t0, t1, t2 = pol.thresholds_c
        if phase is TemperaturePhase.NORMAL:
            return None, t0
        if phase is TemperaturePhase.EXTENDED:
            return t0, t1
        return t1, t2

    # -- main entry --------------------------------------------------------

    def run(self, launch: KernelLaunch, policy: "OffloadPolicy"):
        from repro.gpu.simulator import SimulationResult
        from repro.telemetry.live import get_run_sink

        sim = self.sim
        launch.trace.rewind()
        sim.sensor.reset()
        # Scenario injection mirrors the stepped loop exactly: one driver
        # per run, events applied at control-step granularity, and (see
        # _try_burst) every injection instant a hard commit boundary.
        scen = sim._scenario_driver()
        self.scen = scen
        if scen is not None:
            scen.begin()
        self.policy = policy
        self.exempt = policy.thermal_exempt

        if not self.exempt:
            sim.thermal.warm_start(sim.warm_start)
        sim.flow.phase = TemperaturePhase.NORMAL
        sim.flow.set_thermal_warning(False)

        policy.bind(sim)
        policy.begin(launch, now_s=0.0)

        self.tracer = get_tracer()
        self.traced = self.tracer.enabled
        wall_t0 = _time.perf_counter()
        stats = sim.stats.scoped("sim")
        self.dt_hist = stats.histogram(
            "control_dt_ns", 0.0, sim.control_dt_s * 1e9 * 1.01, 64
        )
        self.dt_hist.reset()
        self.burst_hist = stats.histogram(
            "macro_burst_steps", 0.0, SPEC_CAP_MAX * 1.01, 64
        )
        self.burst_hist.reset()
        self.frac_tw = stats.time_weighted("pim_fraction")
        self.frac_tw.reset(initial=0.0, start_time=0.0)
        for name in (
            "epochs", "control_steps", "thermal_solver_steps",
            "thermal_warnings", "shutdowns", "pim_ops", "host_atomics",
            "host_atomics_assigned",
        ):
            stats.counter(name).reset()

        self.epochs = 0
        self.control_steps = 0
        self.thermal_steps = 0
        self.now_s = 0.0
        self.link_bytes = 0
        self.data_bytes = 0
        self.pim_ops_total = 0
        self.host_atomics_total = 0
        self.host_assigned_total = 0
        self.atomics_total = 0
        self.warnings = 0
        self.shutdowns = 0
        self.peak_temp = (
            sim.thermal.peak_dram_c() if not self.exempt
            else sim.thermal.ambient_c
        )
        #: Last *committed* DRAM peak (°C) — the live-telemetry readout.
        #: Updated only at scalar steps and burst commits, so emission
        #: never observes speculative state.
        self.last_temp_c = self.peak_temp
        self.phase_time = {p.name: 0.0 for p in TemperaturePhase}
        self.timeline: List[Tuple[float, float, float, float]] = []
        self.next_sample = 0.0
        self.thermal_debt_s = 0.0
        self.package_energy_j = 0.0
        fan_power_w = (
            sim.thermal.cooling.fan_power_w() if not self.exempt else 0.0
        )

        self.state = None
        trace = launch.trace
        self.launch_trace = trace
        # Live telemetry: sampled only here, between committed steps or
        # bursts — the speculative march never emits, so attaching a
        # sink cannot perturb the bit-equality contract.
        sink = get_run_sink()
        total_epochs = max(1, len(trace))
        while True:
            if self.state is None:
                batch = trace.next()
                if batch is None:
                    break
                if scen is not None:
                    batch = scen.transform_batch(batch)
                self._open_epoch(batch, self.now_s)
                if not self._epoch_pending():
                    self._close_epoch(self.now_s)
                    continue
            if scen is not None:
                # Stepped applies due events at the top of every control
                # step — i.e. after the epoch open at the same instant.
                scen.apply_due(self.now_s)
            if self.skip > 0:
                self.skip -= 1
                self._scalar_step()
            elif self._try_burst() == 0:
                self._scalar_step()
            if sink is not None and self.now_s >= sink.next_due_s:
                pool = getattr(policy, "pool", None)
                sink.emit_sample({
                    "t_s": self.now_s,
                    "progress": trace.position / total_epochs,
                    "dram_c": self.last_temp_c,
                    "pim_fraction": self.frac_tw.value,
                    "tokens": pool.size if pool is not None else None,
                    "warnings": self.warnings,
                    "shutdowns": self.shutdowns,
                    "avg_link_gbs": (
                        self.link_bytes / self.now_s / 1e9
                        if self.now_s > 0 else 0.0
                    ),
                    "phase": sim.flow.phase.name,
                    "engine": "macro",
                })

        self._materialize()
        if scen is not None:
            # Restore the shared thermal/flow/sensor models to nominal:
            # CoolPimSystem reuses them across runs.
            scen.finish()
        if self.now_s > 0.0:
            self.frac_tw.update(self.frac_tw.value, self.now_s)
        stats.counter("epochs").inc(self.epochs)
        stats.counter("control_steps").inc(self.control_steps)
        stats.counter("thermal_solver_steps").inc(self.thermal_steps)
        stats.counter("thermal_warnings").inc(self.warnings)
        stats.counter("shutdowns").inc(self.shutdowns)
        stats.counter("pim_ops").inc(self.pim_ops_total)
        stats.counter("host_atomics").inc(self.host_atomics_total)
        stats.counter("host_atomics_assigned").inc(self.host_assigned_total)
        if self.traced:
            self.tracer.complete(
                "sim.run", wall_t0, _time.perf_counter(), cat="sim",
                workload=launch.name, policy=policy.name,
                epochs=self.epochs, control_steps=self.control_steps,
                warnings=self.warnings, shutdowns=self.shutdowns,
                sim_runtime_s=self.now_s, engine="macro",
            )

        return SimulationResult(
            workload=launch.name,
            policy=policy.name,
            runtime_s=self.now_s,
            link_bytes=self.link_bytes,
            data_bytes=self.data_bytes,
            pim_ops=self.pim_ops_total,
            host_atomics=self.host_atomics_total,
            total_atomics=self.atomics_total,
            peak_dram_temp_c=self.peak_temp,
            thermal_warnings=self.warnings,
            shutdowns=self.shutdowns,
            phase_time_s=self.phase_time,
            package_energy_j=self.package_energy_j,
            fan_energy_j=fan_power_w * self.now_s,
            timeline=self.timeline,
        )

    # -- scalar fallback ---------------------------------------------------

    def _scalar_step(self) -> None:
        """One control quantum, verbatim reference-loop semantics."""
        sim = self.sim
        state = self.state
        policy = self.policy
        exempt = self.exempt
        traced = self.traced
        from repro.gpu.simulator import SHUTDOWN_RECOVERY_S

        if not exempt:
            self._materialize()
        fraction = policy.pim_fraction(self.now_s)
        if fraction != self.frac_tw.value:
            self.frac_tw.update(fraction, self.now_s)
        demand, atomics_dem = sim._mem_demand(state, fraction)
        t_mem_ns = sim.flow.service_time_ns(demand)
        mlp = min(1.0, state.threads / sim.saturation_threads)
        if mlp > 0.0:
            t_mem_ns /= mlp
        t_cmp_ns = sim.sm.compute_time_ns(state.as_batch())
        t_atm_ns = demand.host_atomics / sim.gpu.host_atomic_ops_per_ns
        t_total_ns = max(t_mem_ns, t_cmp_ns, t_atm_ns, 1.0)

        dt_ns = min(sim.control_dt_s * 1e9, t_total_ns)
        share = dt_ns / t_total_ns
        final_step = share >= 1.0
        served_reads = min(int(round(demand.reads * share)), self.rem_reads)
        served_writes = min(int(round(demand.writes * share)), self.rem_writes)
        served_host = int(round(demand.host_atomics * share))
        served_pim = int(round(demand.pim_ops * share))
        served_pim_ret = int(round(demand.pim_ops_ret * share))
        host_raw = int(round((atomics_dem - demand.total_pim) * share))
        over = served_pim + served_pim_ret + host_raw - self.rem_atomics
        if over > 0:
            cut = min(over, host_raw)
            host_raw -= cut
            over -= cut
            cut = min(over, served_pim)
            served_pim -= cut
            served_pim_ret -= over - cut
        if final_step:
            served_reads = self.rem_reads
            served_writes = self.rem_writes
            leftover = self.rem_atomics - (served_pim + served_pim_ret
                                           + host_raw)
            extra_pim = min(leftover, int(round(leftover * fraction)))
            extra_host = leftover - extra_pim
            served_pim += extra_pim
            host_raw += extra_host
            served_host += int(round(
                extra_host * sim.cache.host_atomic_coalescing
            ))
        self.rem_reads -= served_reads
        self.rem_writes -= served_writes
        self.rem_atomics -= served_pim + served_pim_ret + host_raw
        self.host_assigned_total += host_raw
        served = TrafficDemand(
            reads=served_reads,
            writes=served_writes,
            host_atomics=served_host,
            pim_ops=served_pim,
            pim_ops_ret=served_pim_ret,
        )
        state.drain(share)

        ext_gbs, int_gbs, pim_rate = sim.flow.traffic_rates(served, dt_ns)
        if not exempt:
            traffic_point = TrafficPoint(
                external_gbs=ext_gbs,
                internal_dram_gbs=int_gbs,
                pim_rate_ops_ns=pim_rate,
            )
            self.thermal_debt_s += dt_ns * 1e-9
            temp_c = sim.thermal.peak_dram_c()
            energy_scale = sim.flow.policy.dram_energy_scale(sim.flow.phase)
            while self.thermal_debt_s >= sim.control_dt_s:
                temp_c = sim.thermal.step(
                    traffic_point,
                    sim.control_dt_s,
                    dram_energy_scale=energy_scale,
                )
                self.thermal_debt_s -= sim.control_dt_s
                self.thermal_steps += 1
                self._z = None
            self.peak_temp = max(self.peak_temp, temp_c)
            phase = sim.flow.update_phase(temp_c)
            warning = sim.sensor.observe(temp_c, self.now_s)
            sim.flow.set_thermal_warning(warning)
            if warning:
                self.warnings += 1
                if traced:
                    self.tracer.instant(
                        "sim.thermal_warning", cat="sim",
                        sim_time_ns=self.now_s * 1e9, clock="sim",
                        temp_c=sim.sensor.last_temp_c,
                    )
                policy.on_thermal_warning(self.now_s, sim.sensor.last_temp_c)
            if phase is TemperaturePhase.SHUTDOWN:
                self.shutdowns += 1
                if traced:
                    self.tracer.instant(
                        "sim.shutdown", cat="sim",
                        sim_time_ns=self.now_s * 1e9, clock="sim",
                        temp_c=temp_c,
                    )
                self.now_s += SHUTDOWN_RECOVERY_S
                self.phase_time[TemperaturePhase.SHUTDOWN.name] += (
                    SHUTDOWN_RECOVERY_S
                )
                sim.thermal.warm_start(TrafficPoint.idle())
                self._z = None
                sim.flow.phase = TemperaturePhase.NORMAL
                sim.sensor.reset()
                sim.flow.set_thermal_warning(False)
            self.last_temp_c = temp_c
        else:
            phase = TemperaturePhase.NORMAL
            temp_c = sim.thermal.ambient_c
            traffic_point = TrafficPoint(
                external_gbs=ext_gbs,
                internal_dram_gbs=int_gbs,
                pim_rate_ops_ns=pim_rate,
            )
            energy_scale = 1.0

        self.package_energy_j += (
            sim.thermal.power.package_total_w(traffic_point, energy_scale)
            * dt_ns * 1e-9
        )
        sim.flow.record(served, dt_ns)
        self.link_bytes += served.link_bytes()
        self.data_bytes += served.external_data_bytes()
        self.pim_ops_total += served.total_pim
        self.host_atomics_total += served.host_atomics
        self.phase_time[phase.name] += dt_ns * 1e-9
        self.now_s += dt_ns * 1e-9
        self.control_steps += 1
        self.dt_hist.observe(dt_ns)

        if self.now_s >= self.next_sample:
            self.timeline.append((self.now_s, temp_c, pim_rate, fraction))
            self.next_sample = (
                math.floor(self.now_s / sim.timeline_dt_s) + 1.0
            ) * sim.timeline_dt_s

        if not self._epoch_pending():
            self._close_epoch(self.now_s)

    # -- burst path --------------------------------------------------------
    #
    # One burst = begin → speculate → march → validate → commit, one
    # method per stage (driven by ``_try_burst``). ``_Burst`` carries one
    # burst's inputs and outputs between the stages.

    def _spec_begin(self) -> "Optional[_Burst]":
        """Resolve burst preconditions and hoist the burst-scoped inputs.

        Returns ``None`` when no burst may start here: unhealthy reduced
        basis, shutdown recovery, a perturbed sensor window (scalar
        oracle path), or a warning the policy may act on this very step.
        """
        sim = self.sim
        exempt = self.exempt
        policy = self.policy
        flow = sim.flow
        if not exempt:
            if self._prop_bad:
                return None
            if self._prop is None:
                self._prop = sim.thermal.propagator(sim.control_dt_s)
                self._reader = self._prop.peak_reader()
            if not self._prop.healthy:
                self._prop_bad = True
                return None
        if flow.is_shutdown:
            return None
        scen = self.scen
        if scen is not None and scen.sensor_perturbed():
            # Sensor-fault windows (noise/dropout) run on the scalar
            # oracle path: each sample must pass through the real,
            # perturbed sensor at its exact instant so both engines draw
            # the same noise variates in the same order.
            return None

        b = _Burst()
        b.wall_b0 = _time.perf_counter() if self.traced else 0.0
        b.t0 = t0 = self.now_s
        # The burst's first quantum makes the real policy call (it may
        # apply a pending change); subsequent quanta reuse the value under
        # the fraction_horizon purity contract.
        b.fraction = policy.pim_fraction(t0)
        end_t = policy.fraction_horizon(t0)
        if scen is not None:
            # Extended horizon contract: an injection instant is a hard
            # commit boundary — a burst may not speculate across it.
            nxt = scen.next_event_s()
            if nxt < end_t:
                end_t = nxt
        b.warning = warning = sim.sensor.warning
        b.samples_safe = True
        if warning:
            wn_cur = policy.warning_noop_until(t0, sim.sensor.last_temp_c)
            if wn_cur <= t0:
                return None  # the policy may act this very step
            if wn_cur < end_t:
                end_t = wn_cur
            # A sensor sample inside the burst replaces the temperature the
            # per-step warning callbacks would carry; that is only safe if
            # the callbacks are no-ops for *any* temperature to burst end.
            # Otherwise the burst may still *end on* a sample step: the
            # commit delivers that one callback for real, with the marched
            # temperature, reproducing the scalar loop's policy state.
            b.samples_safe = policy.warning_noop_until(t0, None) >= end_t
        b.end_t = end_t
        b.phase0 = flow.phase
        b.link_gbs = flow.effective_link_gbs()
        b.dram_gbs = flow.dram_capacity_gbs()
        b.fu_cap = flow.fu_capacity_ops_per_ns()
        b.es = 1.0 if exempt else flow.policy.dram_energy_scale(b.phase0)
        # Boundary forcing for the marched thermal states: scenario
        # ambient/cooling offsets enter here (and only here) — identical
        # to the exact solver's `B * ambient_c` term, and equal to
        # the ambient when no offset is active.
        b.amb_forcing = sim.thermal.effective_ambient_c
        b.cap = self.spec_cap
        b.pos0 = self.launch_trace.position
        b.pt0 = self.phase_time[b.phase0.name]
        b.steps = []
        b.entries = []
        b.cum_sub = 0
        b.sample_stop = False
        return b

    def _speculate(self, b: "_Burst") -> None:
        """Scalar speculation: replay the control loop into ``b.steps``.

        Pure-Python, bit-identical arithmetic to the reference loop —
        the per-step 31-tuples are the contract every other stage builds
        on.
        """
        sim = self.sim
        exempt = self.exempt
        scen = self.scen
        fraction = b.fraction
        end_t = b.end_t
        warning = b.warning
        samples_safe = b.samples_safe
        control_dt_s = sim.control_dt_s
        quantum_ns = self.quantum_ns
        period = sim.sensor.sample_period_s
        tl_dt = sim.timeline_dt_s
        sat_threads = sim.saturation_threads
        link_gbs = b.link_gbs
        dram_gbs = b.dram_gbs
        fu_cap = b.fu_cap
        es = b.es
        coal = self.coal
        writeback = self.writeback
        dirty = self.dirty
        atomic_rate = self.atomic_rate
        peak_ipns = self.peak_ipns
        eq = self.link_equiv
        le, de, fe128 = self.le, self.de, self.fe128
        sl_w, sd_w = self.sl_w, self.sd_w
        rq_r, rs_r = self.rq_r, self.rs_r
        rq_w, rs_w = self.rq_w, self.rs_w
        rq_p, rs_p = self.rq_p, self.rs_p
        rq_pr, rs_pr = self.rq_pr, self.rs_pr
        fb = FLIT_BYTES

        # Epoch-local speculation state (copies; committed on success).
        st = self.state
        sr, sw_, sa = st.reads, st.writes, st.atomics
        sar, scc = st.atomics_ret, st.compute_cycles
        rr, rw, ra = self.rem_reads, self.rem_writes, self.rem_atomics
        mlp, infl = self.mlp, self.inflation
        tnow = b.t0
        debt = self.thermal_debt_s
        # Replicates the sensor's own `now - last >= period` comparison.
        nsamp = sim.sensor._last_sample_time
        next_tl = self.next_sample
        pkg_acc = self.package_energy_j
        busy_acc = sim.flow.stats.busy_ns
        pt_acc = b.pt0
        cap = b.cap
        trace = self.launch_trace
        entries = b.entries
        steps = b.steps
        cum_sub = 0
        # Set when the burst's final step is a sample whose warning
        # callback the policy may act on; the commit invokes it for real.
        sample_stop = False

        while True:
            if len(steps) >= cap:
                break
            if steps and tnow >= end_t:
                break
            if not (sr >= 0.5 or sw_ >= 0.5 or sa >= 0.5 or scc >= 1.0
                    or ra > 0 or rr > 0 or rw > 0):
                nb = trace.next()
                if nb is None:
                    break
                if scen is not None:
                    nb = scen.transform_batch(nb)
                ntraffic = sim.cache.filter(nb)
                entries.append((len(steps), nb, ntraffic))
                sr = float(ntraffic.reads)
                sw_ = float(ntraffic.writes)
                sa = float(ntraffic.atomics)
                sar = float(ntraffic.atomics_with_return)
                scc = float(nb.compute_cycles)
                rr, rw, ra = ntraffic.reads, ntraffic.writes, ntraffic.atomics
                mlp = min(1.0, nb.threads / sat_threads)
                infl = (
                    1.0 + (DIVERGENCE_SERIALIZATION - 1.0)
                    * nb.divergent_warp_ratio
                )
                continue

            # ---- demand (cache filter + PIM split), exact arithmetic ----
            atomics_dem = max(0, int(round(sa)))
            d_reads = max(0, int(round(sr)))
            d_writes = max(0, int(round(sw_)))
            awr = min(int(round(sar)), int(round(sa)))
            pim_total = int(round(atomics_dem * fraction))
            pim_ret = min(pim_total, int(round(awr * fraction)))
            pim_plain = pim_total - pim_ret
            host = atomics_dem - pim_total
            host_eff = int(round(host * coal))
            writes_d = d_writes
            if writeback:
                writes_d += int(round(pim_total * dirty))

            # ---- bottleneck service time --------------------------------
            rf = ((d_reads + host_eff) * rq_r + (writes_d + host_eff) * rq_w
                  + pim_plain * rq_p + pim_ret * rq_pr)
            sf = ((d_reads + host_eff) * rs_r + (writes_d + host_eff) * rs_w
                  + pim_plain * rs_p + pim_ret * rs_pr)
            t_link = max(rf * fb, sf * fb) / link_gbs
            idb = (64 * (d_reads + writes_d + 2 * host_eff)
                   + 32 * (pim_plain + pim_ret))
            t_dram = idb / dram_gbs
            tp = pim_plain + pim_ret
            t_fu = tp / fu_cap if tp else 0.0
            t_mem = max(t_link, t_dram, t_fu)
            if mlp > 0.0:
                t_mem /= mlp
            cc_i = int(scc)
            t_cmp = (cc_i * infl) / peak_ipns if cc_i > 0 else 0.0
            t_atm = host_eff / atomic_rate
            t_total = max(t_mem, t_cmp, t_atm, 1.0)

            # ---- serve the quantum --------------------------------------
            dt_ns = min(quantum_ns, t_total)
            share = dt_ns / t_total
            final_step = share >= 1.0
            s_reads = min(int(round(d_reads * share)), rr)
            s_writes = min(int(round(writes_d * share)), rw)
            s_host = int(round(host_eff * share))
            s_pim = int(round(pim_plain * share))
            s_pimr = int(round(pim_ret * share))
            h_raw = int(round((atomics_dem - tp) * share))
            over = s_pim + s_pimr + h_raw - ra
            if over > 0:
                cut = min(over, h_raw)
                h_raw -= cut
                over -= cut
                cut = min(over, s_pim)
                s_pim -= cut
                s_pimr -= over - cut
            if final_step:
                s_reads = rr
                s_writes = rw
                leftover = ra - (s_pim + s_pimr + h_raw)
                extra_pim = min(leftover, int(round(leftover * fraction)))
                extra_host = leftover - extra_pim
                s_pim += extra_pim
                h_raw += extra_host
                s_host += int(round(extra_host * coal))
            rr -= s_reads
            rw -= s_writes
            ra -= s_pim + s_pimr + h_raw
            keep = 1.0 - share
            sr *= keep
            sw_ *= keep
            sa *= keep
            sar *= keep
            scc *= keep

            # ---- served traffic, rates, power ---------------------------
            srf = ((s_reads + s_host) * rq_r + (s_writes + s_host) * rq_w
                   + s_pim * rq_p + s_pimr * rq_pr)
            ssf = ((s_reads + s_host) * rs_r + (s_writes + s_host) * rs_w
                   + s_pim * rs_p + s_pimr * rs_pr)
            lb = (srf + ssf) * fb
            db = 64 * (s_reads + s_writes + 2 * s_host) + 16 * s_pimr
            s_idb = (64 * (s_reads + s_writes + 2 * s_host)
                     + 32 * (s_pim + s_pimr))
            ext = lb * eq / dt_ns
            intr = s_idb / dt_ns
            pim_rate = (s_pim + s_pimr) / dt_ns

            if not exempt:
                sflag = tnow - nsamp >= period
                if sflag:
                    if warning and not samples_safe:
                        sample_stop = True
                    nsamp = tnow
                debt += dt_ns * 1e-9
                nsub = 0
                while debt >= control_dt_s:
                    debt -= control_dt_s
                    nsub += 1
                cum_sub += nsub
                tidx = cum_sub - 1
            else:
                nsub = 0
                tidx = -1
                sflag = False

            pkg = ((sl_w + le * ext * 1e9 * 8)
                   + es * (fe128 * pim_rate * 1e9
                           + (sd_w + de * intr * 1e9 * 8)))
            pkg_acc += pkg * dt_ns * 1e-9
            busy_acc += dt_ns
            pt_acc += dt_ns * 1e-9
            t_start = tnow
            tnow = tnow + dt_ns * 1e-9
            tlf = tnow >= next_tl
            if tlf:
                next_tl = (math.floor(tnow / tl_dt) + 1.0) * tl_dt

            steps.append((
                dt_ns, t_start, tnow,
                s_reads, s_writes, s_host, s_pim, s_pimr, h_raw,
                lb, db, nsub, tidx, sflag, tlf,
                ext, intr, pim_rate,
                pkg_acc, busy_acc, pt_acc, debt, next_tl,
                sr, sw_, sa, sar, scc, rr, rw, ra,
            ))
            if sample_stop:
                break

        b.cum_sub = cum_sub
        b.sample_stop = sample_stop

    def _march_coeffs(self, b: "_Burst", cols) -> Optional[tuple]:
        """Thermal-march inputs: ``(z0, t0_peak, coeffs)``.

        ``coeffs`` is the (6, cum_sub) power-basis weight matrix of the
        burst's thermal substeps (``None`` when the burst spans none).
        Returns ``None`` when the thermal state cannot be represented in
        the reduced basis — the caller reverts to exact stepping.
        """
        sim = self.sim
        if self._z is not None:
            z0 = self._z
            t0_peak = self._z_peak
        else:
            t0_peak = sim.thermal.peak_dram_c()
            z0, _resid = self._prop.project(sim.thermal.state)
            if z0 is None:
                return None
        if b.cum_sub == 0:
            return z0, t0_peak, None
        es = b.es
        nsub_arr = np.asarray(cols[11], dtype=np.int64)
        coeffs = np.empty((6, b.cum_sub))
        coeffs[0] = 1.0
        coeffs[1] = es
        coeffs[2] = np.repeat(np.asarray(cols[15]), nsub_arr)
        coeffs[3] = es * np.repeat(np.asarray(cols[16]), nsub_arr)
        coeffs[4] = es * np.repeat(np.asarray(cols[17]), nsub_arr)
        coeffs[5] = b.amb_forcing
        return z0, t0_peak, coeffs

    def _temps_of(self, b: "_Burst", cols, peaks, t0_peak) -> np.ndarray:
        """Per-step decision temperatures from the marched peaks.

        A step with no thermal substep sees the temperature left by the
        last substep before it (or the burst-entry peak).
        """
        tidx_arr = np.asarray(cols[12], dtype=np.int64)
        return np.concatenate(([t0_peak], peaks))[tidx_arr + 1]

    def _validate(self, b: "_Burst", temps) -> tuple:
        """Longest provable prefix: ``(j, flip_stop, phase_stop)``.

        ``j`` is the committed length; ``flip_stop`` marks a decisive
        sensor-hysteresis flip on the final step, ``phase_stop`` a
        decisive temperature-phase crossing (the new phase).
        """
        sim = self.sim
        flow = sim.flow
        K = len(b.steps)
        warning = b.warning
        lo, hi = self._phase_band(b.phase0)
        # Quanta inside the band continue the burst. A quantum
        # decisively *outside* it may end the burst instead of
        # failing it: the oracle applies the phase change after the
        # step's thermal solve, so the crossing step itself runs
        # entirely under the old phase and only later quanta see the
        # new capacities. Anything within MARGIN_C of a boundary is
        # ambiguous and falls back to the exact solver.
        bad = (temps >= hi - MARGIN_C) & (temps < hi + MARGIN_C)
        stop = temps >= hi + MARGIN_C
        if lo is not None:
            bad |= (temps >= lo - MARGIN_C) & (temps < lo + MARGIN_C)
            stop |= temps < lo - MARGIN_C
        sflag_arr = np.fromiter(
            (s[13] for s in b.steps), dtype=bool, count=K
        )
        # Sensor hysteresis: a sample decisively across the warn or
        # clear threshold flips the warning state — again only later
        # quanta (plus the flip step's own callback, delivered at
        # commit) observe it, so the flip step can be the burst's
        # last.
        if warning:
            thr = sim.sensor.clear_threshold_c
            flips = sflag_arr & (temps < thr - MARGIN_C)
        else:
            thr = sim.sensor.warn_threshold_c
            flips = sflag_arr & (temps >= thr + MARGIN_C)
        bad |= (
            sflag_arr
            & (temps >= thr - MARGIN_C)
            & (temps < thr + MARGIN_C)
        )
        stop |= flips
        viol = np.nonzero(bad)[0]
        j = int(viol[0]) if viol.size else K
        flip_stop = False
        phase_stop: Optional[TemperaturePhase] = None
        cand = np.nonzero(stop[:j])[0]
        if cand.size:
            f = int(cand[0])
            t_f = float(temps[f])
            pol = flow.policy
            new_phase = pol.phase(t_f)
            # A shutdown crossing needs the scalar step's recovery
            # branch; and a multi-band jump may land inside another
            # threshold's margin — guard every decision threshold.
            decisive = new_phase is not TemperaturePhase.SHUTDOWN
            if decisive and not pol.conservative_shutdown:
                decisive = all(
                    abs(t_f - t) >= MARGIN_C for t in pol.thresholds_c
                )
            if decisive:
                j = f + 1
                flip_stop = bool(flips[f])
                if new_phase is not b.phase0:
                    phase_stop = new_phase
            else:
                j = min(j, f)
        return j, flip_stop, phase_stop

    def _commit(
        self, b: "_Burst", cols, j: int, flip_stop: bool,
        phase_stop, Z, peaks, temps,
    ) -> int:
        """Apply the validated prefix of ``j`` quanta; returns ``j``."""
        sim = self.sim
        flow = sim.flow
        exempt = self.exempt
        policy = self.policy
        warning = b.warning
        fraction = b.fraction
        steps = b.steps
        K = len(steps)
        full = j == K
        if not exempt:
            committed_sub = sum(cols[11][:j])
            if committed_sub > 0:
                # Keep the state in reduced coordinates; it is
                # materialized lazily before the next exact solver use.
                self._z = Z[:, committed_sub - 1]
                self._z_peak = float(peaks[committed_sub - 1])
        else:
            committed_sub = 0

        end_now = cols[2][j - 1]
        committed_entries = [
            e for e in b.entries if e[0] < j or (full and e[0] <= j)
        ]
        self.launch_trace.seek(b.pos0 + len(committed_entries))
        for idx, nb, ntraffic in committed_entries:
            t_at = cols[1][idx] if idx < j else end_now
            self._close_epoch(t_at)
            self._open_epoch(nb, t_at, traffic=ntraffic)

        # Fluid remainder and integer ledgers after the last committed
        # quantum (the sequence of float ops matches the scalar loop).
        # When the burst ended right after an epoch advance (a committed
        # entry starting at step j), the open epoch is fresh and has no
        # recorded post-state to restore — leave it untouched.
        if not (committed_entries and committed_entries[-1][0] == j):
            st = self.state
            st.reads = cols[23][j - 1]
            st.writes = cols[24][j - 1]
            st.atomics = cols[25][j - 1]
            st.atomics_ret = cols[26][j - 1]
            st.compute_cycles = cols[27][j - 1]
            self.rem_reads = cols[28][j - 1]
            self.rem_writes = cols[29][j - 1]
            self.rem_atomics = cols[30][j - 1]

        self.now_s = end_now
        self.package_energy_j = cols[18][j - 1]
        flow.stats.busy_ns = cols[19][j - 1]
        if phase_stop is not None:
            # The crossing step's dt accrues to the *new* phase (the
            # oracle bills phase time after updating the phase).
            self.phase_time[b.phase0.name] = (
                cols[20][j - 2] if j > 1 else b.pt0
            )
        else:
            self.phase_time[b.phase0.name] = cols[20][j - 1]
        self.thermal_debt_s = cols[21][j - 1]
        self.next_sample = cols[22][j - 1]

        sh_sum = sum(cols[5][:j])
        sp_sum = sum(cols[6][:j])
        spr_sum = sum(cols[7][:j])
        self.link_bytes += sum(cols[9][:j])
        self.data_bytes += sum(cols[10][:j])
        self.pim_ops_total += sp_sum + spr_sum
        self.host_atomics_total += sh_sum
        self.host_assigned_total += sum(cols[8][:j])
        self.control_steps += j
        self.thermal_steps += committed_sub
        if flip_stop:
            # The final step's sample flipped the warning: the oracle
            # counts that step under the *new* state.
            self.warnings += (j - 1) if warning else 1
        elif warning:
            self.warnings += j
        self.peak_temp = max(self.peak_temp, float(temps[:j].max()))
        self.last_temp_c = float(temps[j - 1])
        if fraction != self.frac_tw.value:
            self.frac_tw.update(fraction, b.t0)
        self.dt_hist.observe_many(np.asarray(cols[0][:j]))

        fs = flow.stats
        fs.pim_ops += sp_sum + spr_sum
        fs.host_atomics += sh_sum
        ledger = fs.ledger
        ledger.record(PacketType.READ64, sum(cols[3][:j]) + sh_sum)
        ledger.record(PacketType.WRITE64, sum(cols[4][:j]) + sh_sum)
        ledger.record(PacketType.PIM, sp_sum)
        ledger.record(PacketType.PIM_RET, spr_sum)

        # Rare per-quantum events: sensor samples, warning instants,
        # timeline points.
        sensor = sim.sensor
        traced = self.traced
        for k in range(j):
            stp = steps[k]
            if stp[13]:
                sensor.observe(float(temps[k]), stp[1])
            if traced and (warning != (flip_stop and k == j - 1)):
                self.tracer.instant(
                    "sim.thermal_warning", cat="sim",
                    sim_time_ns=stp[1] * 1e9, clock="sim",
                    temp_c=sensor.last_temp_c,
                )
            if stp[14]:
                self.timeline.append(
                    (stp[2], float(temps[k]), stp[17], fraction)
                )
        if phase_stop is not None:
            flow.phase = phase_stop
            self.phase_time[phase_stop.name] += cols[0][j - 1] * 1e-9
        if flip_stop:
            flow.set_thermal_warning(not warning)
            if not warning:
                # Newly-set warning: deliver the flip step's callback (the
                # observe above updated the sensor), exactly as the scalar
                # loop would at that step.
                policy.on_thermal_warning(steps[j - 1][1], sensor.last_temp_c)
        elif b.sample_stop and full:
            # The burst ended on a sample whose callback may act: deliver
            # it now, after the observe above updated the sensor, exactly
            # as the scalar loop would at that step.
            policy.on_thermal_warning(steps[j - 1][1], sensor.last_temp_c)

        if not self._epoch_pending():
            self._close_epoch(self.now_s)

        self.burst_hist.observe(j)
        if traced:
            self.tracer.complete(
                "sim.macro_burst", b.wall_b0, _time.perf_counter(),
                cat="sim", steps=j, speculated=K,
                thermal_substeps=committed_sub,
                sim_start_s=b.t0, sim_end_s=end_now,
            )

        if full and K == b.cap:
            self.spec_cap = min(b.cap * 4, SPEC_CAP_MAX)
        elif not full:
            if flip_stop or phase_stop is not None:
                # Decisive boundary stop: a successful commit up to a real
                # event, not a misprediction. Reuse the window across the
                # boundary, sized to ~2× what this burst committed, instead
                # of collapsing to SPEC_CAP_NEAR and re-growing 4×-per-burst
                # from scratch (the regrowth stalls a policy that keeps
                # crossing thresholds — HW-DynT's warning churn).
                self.spec_cap = max(SPEC_CAP_NEAR, min(b.cap, 2 * j))
            else:
                # Truncated by validation: the trajectory is riding a
                # threshold ambiguously — keep the next attempt's wasted
                # speculation proportional to what it commits.
                self.spec_cap = max(SPEC_CAP_NEAR, min(SPEC_CAP_MIN, 2 * j))
        return j

    def _try_burst(self) -> int:
        """Speculate/validate/commit one burst; returns committed quanta."""
        b = self._spec_begin()
        if b is None:
            return 0
        self._speculate(b)
        K = len(b.steps)
        if K == 0:
            self.launch_trace.seek(b.pos0)
            return 0
        cols = list(zip(*b.steps))
        Z, peaks = None, np.empty(0)
        if self.exempt:
            temps = np.full(K, self.sim.thermal.ambient_c)
            j = K
            flip_stop = False
            phase_stop = None
        else:
            mc = self._march_coeffs(b, cols)
            if mc is None:
                self._prop_bad = True
                self.launch_trace.seek(b.pos0)
                return 0
            z0, t0_peak, coeffs = mc
            if coeffs is not None:
                Z = self._prop.march(z0, coeffs)
                peaks = self._reader.peaks(Z)
            temps = self._temps_of(b, cols, peaks, t0_peak)
            j, flip_stop, phase_stop = self._validate(b, temps)

        if j < MIN_BURST:
            self.launch_trace.seek(b.pos0)
            if j < K:
                # Validation truncation: the trajectory is riding a
                # threshold — stop re-speculating every scalar step.
                self.fail_streak += 1
                self.skip = min(MAX_BACKOFF_STEPS, 2 ** self.fail_streak)
                self.spec_cap = SPEC_CAP_NEAR
            return 0
        self.fail_streak = 0
        return self._commit(
            b, cols, j, flip_stop, phase_stop, Z, peaks, temps
        )


class _Burst:
    """One burst's stage-to-stage carrier (see the burst path above)."""

    __slots__ = (
        "t0", "fraction", "end_t", "warning", "samples_safe", "phase0",
        "es", "amb_forcing", "link_gbs", "dram_gbs", "fu_cap", "cap",
        "pos0", "pt0", "wall_b0", "steps", "entries", "cum_sub",
        "sample_stop",
    )
