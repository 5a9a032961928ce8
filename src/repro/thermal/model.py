"""Thermal model facade used by experiments and the co-simulation.

Wraps floorplan + stack + RC network + solvers into the queries the rest
of the system needs:

- :meth:`HmcThermalModel.steady_peak_dram_c` — Fig. 4/5-style operating
  points (peak DRAM die temperature at a traffic level).
- :meth:`HmcThermalModel.step` — transient integration for the feedback
  control loop (Fig. 14).
- :meth:`HmcThermalModel.heatmap` — per-layer temperature fields (Fig. 3).
- Surface-temperature estimates for the prototype experiments (Fig. 1/2).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.hmc.config import HMC_2_0, HmcConfig
from repro.obs.tracer import get_tracer
from repro.thermal.cooling import COMMODITY_SERVER, CoolingSolution
from repro.thermal.floorplan import Floorplan
from repro.thermal.operators import get_operators, get_propagator
from repro.thermal.propagator import ReducedPropagator
from repro.thermal.power import PowerModel, TrafficPoint
from repro.thermal.rc_network import DEFAULT_INTERFACE_SCALE, RcNetwork, build_network
from repro.thermal.solver import SteadySolver, TransientSolver
from repro.thermal.stack import StackSpec, build_stack


class HmcThermalModel:
    """Compact thermal model of one HMC package under a cooling solution.

    By default the expensive operators (assembled RC network, steady LU,
    per-dt step LUs) come from the process-level cache in
    :mod:`repro.thermal.operators`, so the dozens of models a sweep
    constructs share one assembly and factorization per package/cooling
    combination. Transient state is always per-instance. Pass
    ``share_operators=False`` to build private copies (e.g. when mutating
    network matrices in calibration studies).
    """

    def __init__(
        self,
        config: HmcConfig = HMC_2_0,
        cooling: CoolingSolution = COMMODITY_SERVER,
        ambient_c: float = 25.0,
        sub: int = 2,
        power_model: Optional[PowerModel] = None,
        interface_scale: float = DEFAULT_INTERFACE_SCALE,
        share_operators: bool = True,
    ) -> None:
        self.config = config
        self.cooling = cooling
        self.ambient_c = ambient_c
        self.power = power_model or PowerModel(config)
        if share_operators:
            ops = get_operators(
                config, cooling, sub=sub,
                interface_scale=interface_scale, ambient_c=ambient_c,
            )
            self.stack: StackSpec = ops.stack
            self.floorplan = ops.floorplan
            self.network: RcNetwork = ops.network
            self._steady = ops.steady
            self._transient = TransientSolver(
                self.network, ambient_c=ambient_c, lu_cache=ops.step_lus
            )
        else:
            self.stack = build_stack(config)
            self.floorplan = Floorplan.for_config(config, sub=sub)
            self.network = build_network(
                self.stack,
                self.floorplan,
                sink_resistance_c_w=cooling.thermal_resistance_c_w,
                interface_scale=interface_scale,
            )
            self._steady = SteadySolver(self.network, ambient_c=ambient_c)
            self._transient = TransientSolver(self.network, ambient_c=ambient_c)
            ops = None
        self._shared_ops = ops
        self._private_propagators: Dict[tuple, ReducedPropagator] = {}
        self._last_T: Optional[np.ndarray] = None

    # -- power plumbing ---------------------------------------------------------

    def _basis(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached linear power basis for uniform vault weights.

        Node power is linear in (external GB/s, internal GB/s, PIM rate):
        ``P = Plogic0 + s·Pdram0 + ext·Vext + s·int·Vint + s·pim·Vpim``
        where ``s`` is the hot-phase DRAM energy scale — the per-step
        power-map assembly reduces to a few AXPYs. The DRAM-affected
        components (static DRAM, internal traffic, PIM ops — the latter
        dominated by DRAM activation energy) carry the scale; logic static
        and SerDes switching do not.
        """
        if not hasattr(self, "_basis_cache"):
            # The basis is a pure function of the power-model constants
            # and the shared floorplan/network, so instances over the
            # same operators (the systems of a sweep) reuse one
            # assembly instead of re-running the per-vault map walks.
            if self._shared_ops is not None:
                shared = getattr(self._shared_ops, "_basis_cache", None)
                if shared is None:
                    shared = self._shared_ops._basis_cache = {}
                key = self._power_fingerprint()
                hit = shared.get(key)
                if hit is not None:
                    self._basis_cache = hit
                    return hit
            from dataclasses import replace as _replace

            def vec(pm: PowerModel, t: TrafficPoint) -> np.ndarray:
                maps = pm.layer_power_maps(self.floorplan, t)
                return self.network.power_vector(maps)

            pm = self.power
            pm_dram_only = PowerModel(
                pm.config,
                dram_energy_per_bit=pm.dram_energy_per_bit,
                logic_energy_per_bit=pm.logic_energy_per_bit,
                fu_energy_per_bit=pm.fu_energy_per_bit,
                static_logic_w=0.0,
                static_dram_total_w=pm.static_dram_total_w,
            )
            p0 = vec(pm, TrafficPoint.idle())
            p0_dram = vec(pm_dram_only, TrafficPoint.idle())
            p0_logic = p0 - p0_dram
            v_ext = vec(pm, TrafficPoint(external_gbs=1.0)) - p0
            v_int = vec(pm, TrafficPoint(internal_dram_gbs=1.0)) - p0
            v_pim = vec(pm, TrafficPoint(pim_rate_ops_ns=1.0)) - p0
            self._basis_cache = (p0_logic, p0_dram, v_ext, v_int, v_pim)
            if self._shared_ops is not None:
                shared[key] = self._basis_cache
        return self._basis_cache

    def _power_vector(
        self,
        traffic: TrafficPoint,
        vault_weights: Optional[np.ndarray] = None,
        dram_energy_scale: float = 1.0,
    ) -> np.ndarray:
        if dram_energy_scale < 0:
            raise ValueError(f"negative energy scale: {dram_energy_scale}")
        if vault_weights is None:
            p0_logic, p0_dram, v_ext, v_int, v_pim = self._basis()
            s = dram_energy_scale
            return (
                p0_logic
                + s * p0_dram
                + traffic.external_gbs * v_ext
                + s * traffic.internal_dram_gbs * v_int
                + s * traffic.pim_rate_ops_ns * v_pim
            )
        if dram_energy_scale != 1.0:
            raise NotImplementedError(
                "hot-phase energy scaling requires uniform vault weights"
            )
        maps = self.power.layer_power_maps(self.floorplan, traffic, vault_weights)
        return self.network.power_vector(maps)

    # -- steady-state queries --------------------------------------------------

    def steady_state(
        self, traffic: TrafficPoint, vault_weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Full steady node-temperature vector for an operating point."""
        with get_tracer().span(
            "thermal.steady_solve", cat="thermal",
            nodes=self.network.num_nodes,
        ):
            T = self._steady.solve(self._power_vector(traffic, vault_weights))
        self._last_T = T
        return T

    def _peak_over_layers(self, T: np.ndarray, names: list[str]) -> float:
        net = self.network
        return max(
            float(net.layer_temps(T, net.layer_index[n]).max()) for n in names
        )

    def steady_peak_dram_c(
        self, traffic: TrafficPoint, vault_weights: Optional[np.ndarray] = None
    ) -> float:
        """Peak DRAM-die temperature at steady state (Fig. 4/5 metric)."""
        T = self.steady_state(traffic, vault_weights)
        names = [f"dram{i}" for i in range(self.config.num_dram_dies)]
        return self._peak_over_layers(T, names)

    def steady_peak_logic_c(self, traffic: TrafficPoint) -> float:
        T = self.steady_state(traffic)
        return self._peak_over_layers(T, ["logic"])

    def steady_surface_c(self, traffic: TrafficPoint) -> float:
        """Package-surface (spreader-top) temperature — what a thermal
        camera sees in the prototype experiments (Fig. 1/2)."""
        T = self.steady_state(traffic)
        net = self.network
        surf = net.layer_temps(T, net.layer_index["spreader"])
        return float(surf.max())

    def junction_from_surface_c(self, surface_c: float, power_w: float) -> float:
        """Estimate die temperature from a surface measurement using a
        typical surface-to-junction resistance (Sec. III-A: 5–10 °C hotter
        at ~20 W — i.e. ~0.35 °C/W)."""
        return surface_c + 0.35 * power_w

    # -- transient interface -----------------------------------------------------

    @property
    def state(self) -> np.ndarray:
        return self._transient.T

    def reset_transient(self, temp_c: Optional[float] = None) -> None:
        self._transient.T = np.full(
            self.network.num_nodes, self.ambient_c if temp_c is None else temp_c
        )

    # -- scenario injection ------------------------------------------------------

    def set_ambient_offset(self, delta_c: float) -> None:
        """Shift the boundary (case/ambient) temperature by ``delta_c``.

        Scenario injection uses this for both ambient excursions and
        heat-sink degradation: a degraded sink raises the effective
        case-to-ambient resistance, which to first order (lumped, fixed
        reference power ``P_ref``) is an additive boundary-temperature
        penalty ``ΔT = ΔR_sink · P_ref``. The offset only enters the
        transient forcing term (``B · ambient``) — the conductance
        network, operator caches, and reduced propagators are untouched,
        so the macro fast path stays valid; with ``delta_c == 0`` the
        forcing is bit-identical to the unperturbed model. Steady-state
        helpers (warm start, shutdown recovery) keep the nominal ambient
        in both engines.
        """
        self._transient.ambient_c = self.ambient_c + delta_c

    @property
    def effective_ambient_c(self) -> float:
        """Boundary temperature currently driving the transient solver."""
        return self._transient.ambient_c

    def warm_start(self, traffic: TrafficPoint) -> None:
        """Initialize the transient state at the steady point of ``traffic``."""
        self._transient.set_state(self.steady_state(traffic))

    def step(
        self,
        traffic: TrafficPoint,
        dt_s: float,
        vault_weights: Optional[np.ndarray] = None,
        dram_energy_scale: float = 1.0,
    ) -> float:
        """Advance the transient by ``dt_s``; returns peak DRAM temp (°C).

        ``dram_energy_scale`` applies the hot-phase energy penalty
        (doubled refresh + leakage above 85 °C, see
        :meth:`repro.hmc.dram_timing.TemperaturePhasePolicy.dram_energy_scale`).
        """
        P = self._power_vector(traffic, vault_weights, dram_energy_scale)
        T = self._transient.step(P, dt_s)
        self._last_T = T
        names = [f"dram{i}" for i in range(self.config.num_dram_dies)]
        return self._peak_over_layers(T, names)

    def settle(
        self,
        traffic: TrafficPoint,
        dt_s: float = 25e-6,
        tol_c: float = 1e-4,
        vault_weights: Optional[np.ndarray] = None,
        dram_energy_scale: float = 1.0,
    ) -> float:
        """Integrate at constant traffic until the transient settles.

        Runs the batched constant-power fast path
        (:meth:`TransientSolver.run_to_steady`) instead of stepping the
        control loop; returns the settled peak DRAM temperature (°C).
        """
        P = self._power_vector(traffic, vault_weights, dram_energy_scale)
        with get_tracer().span(
            "thermal.settle", cat="thermal", dt_s=dt_s, tol_c=tol_c
        ) as span:
            T, steps = self._transient.run_to_steady(P, dt_s, tol_c=tol_c)
            span.set(steps=steps)
        self._last_T = T
        names = [f"dram{i}" for i in range(self.config.num_dram_dies)]
        return self._peak_over_layers(T, names)

    def peak_dram_c(self) -> float:
        """Peak DRAM temperature of the current transient state."""
        T = self._transient.T
        names = [f"dram{i}" for i in range(self.config.num_dram_dies)]
        return self._peak_over_layers(T, names)

    def set_transient_state(self, T: np.ndarray) -> None:
        """Install a node-temperature state (macro-engine burst commit)."""
        self._transient.set_state(T)
        self._last_T = self._transient.T

    # -- reduced propagation -----------------------------------------------------

    def _power_fingerprint(self) -> tuple:
        pm = self.power
        return (
            pm.dram_energy_per_bit, pm.logic_energy_per_bit,
            pm.fu_energy_per_bit, pm.static_logic_w, pm.static_dram_total_w,
        )

    def propagator(self, dt_s: float) -> ReducedPropagator:
        """Reduced K-step propagator for ``dt_s`` (see
        :mod:`repro.thermal.propagator`).

        Forcing-basis columns are ordered ``(p0_logic, p0_dram, v_ext,
        v_int, v_pim, B)``, so a step's coefficient vector under energy
        scale ``s`` and ambient ``T_amb`` is
        ``(1, s, ext_gbs, s·int_gbs, s·pim_rate, T_amb)`` — matching
        :meth:`_power_vector` plus the boundary term. Cached on the shared
        operator bundle when available, else per-model.
        """
        inputs = np.column_stack([*self._basis(), self.network.B])
        fingerprint = self._power_fingerprint()
        if self._shared_ops is not None:
            return get_propagator(self._shared_ops, dt_s, inputs, fingerprint)
        key = (float(dt_s), fingerprint)
        prop = self._private_propagators.get(key)
        if prop is None:
            net = self.network
            dram_index = np.concatenate([
                np.arange(net.num_nodes)[net.layer_slice(net.layer_index[f"dram{i}"])]
                for i in range(self.config.num_dram_dies)
            ])
            prop = ReducedPropagator(
                net, self._transient._lus.get(dt_s), dt_s, inputs, dram_index
            )
            self._private_propagators[key] = prop
        return prop

    # -- maps ---------------------------------------------------------------------

    def heatmap(self, layer_name: str) -> np.ndarray:
        """(ny, nx) temperature field of a layer from the last solve."""
        if self._last_T is None:
            raise RuntimeError("no solve has been performed yet")
        net = self.network
        if layer_name not in net.layer_index:
            raise KeyError(
                f"unknown layer {layer_name!r}; have {sorted(net.layer_index)}"
            )
        return net.layer_temps(self._last_T, net.layer_index[layer_name]).copy()

    def all_heatmaps(self) -> Dict[str, np.ndarray]:
        return {name: self.heatmap(name) for name in self.network.layer_index}
