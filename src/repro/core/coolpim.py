"""CoolPIM system facade.

Wires a GPU config, an HMC 2.0 flow model, the thermal model, a workload's
cache profile, and an offloading policy into one runnable system — the
full Fig. 6 loop. This is the primary public API:

    from repro.core import CoolPimSystem
    from repro.graph import get_dataset
    from repro.workloads import get_workload

    system = CoolPimSystem()
    result = system.run(get_workload("pagerank"), get_dataset("ldbc-small"),
                        policy="coolpim-hw")
    print(result.runtime_s, result.peak_dram_temp_c)
"""

from __future__ import annotations

import time as _time
from typing import Dict, Iterable, Optional, Union

from repro.core.policies import POLICY_NAMES, OffloadPolicy, make_policy
from repro.obs.tracer import get_tracer
from repro.sim.stats import StatRegistry
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.simulator import SimulationResult, SystemSimulator
from repro.graph.csr import CSRGraph
from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.flow import HmcFlowModel
from repro.thermal.cooling import COMMODITY_SERVER, CoolingSolution
from repro.thermal.model import HmcThermalModel
from repro.thermal.sensor import ThermalSensor
from repro.workloads.base import GraphWorkload
from repro.workloads.trace_store import get_trace_store


class CoolPimSystem:
    """One GPU + one HMC 2.0 cube under a cooling solution.

    The thermal model (the expensive part) is built once and shared across
    runs; each :meth:`run` builds a fresh flow model and sensor so policy
    runs are independent.
    """

    def __init__(
        self,
        gpu: GpuConfig = GPU_DEFAULT,
        hmc: HmcConfig = HMC_2_0,
        cooling: CoolingSolution = COMMODITY_SERVER,
        ambient_c: float = 25.0,
        control_dt_s: float = 25e-6,
        phase_policy=None,
        engine: str = "macro",
    ) -> None:
        self.gpu = gpu
        self.hmc = hmc
        self.cooling = cooling
        self.ambient_c = ambient_c
        self.thermal = HmcThermalModel(hmc, cooling=cooling, ambient_c=ambient_c)
        self.control_dt_s = control_dt_s
        #: Simulation engine: ``"macro"`` (vectorized burst fast path) or
        #: ``"stepped"`` (the scalar reference loop).
        self.engine = engine
        #: Overheat-management rules (None → the paper's three-phase
        #: derating; pass a conservative_shutdown policy for the Sec. III-C
        #: all-or-nothing prototype behaviour).
        self.phase_policy = phase_policy
        #: Stat registry of the most recent :meth:`run` (``sim.*`` scope),
        #: exportable via ``StatRegistry.snapshot(structured=True)``.
        self.last_stats: Optional[StatRegistry] = None

    def run(
        self,
        workload: GraphWorkload,
        graph: CSRGraph,
        policy: Union[str, OffloadPolicy] = "coolpim-hw",
        scenario=None,
    ) -> SimulationResult:
        """Simulate one (workload, policy) run and return its aggregates.

        ``policy`` also accepts an :class:`~repro.agents.Agent` (wrapped
        via :func:`repro.agents.as_policy`); ``scenario`` an optional
        :class:`~repro.scenarios.Scenario` (or preset name) injecting
        seeded faults into the run.
        """
        if isinstance(policy, str):
            policy = make_policy(policy)
        elif not isinstance(policy, OffloadPolicy):
            from repro.agents import as_policy

            policy = as_policy(policy)
        if isinstance(scenario, str):
            from repro.scenarios import make_scenario

            scenario = make_scenario(scenario)
        launch = get_trace_store().launch(workload, graph, self.gpu)
        sim = SystemSimulator(
            gpu=self.gpu,
            hmc_config=self.hmc,
            cache=workload.cache_model(self.gpu),
            flow=HmcFlowModel(self.hmc, phase_policy=self.phase_policy),
            thermal=self.thermal,
            sensor=ThermalSensor(),
            control_dt_s=self.control_dt_s,
            engine=self.engine,
            scenario=scenario,
        )
        tracer = get_tracer()
        t0 = _time.perf_counter()
        result = sim.run(launch, policy)
        tracer.complete(
            "core.run", t0, _time.perf_counter(), cat="core",
            workload=workload.name, policy=policy.name,
            runtime_s=result.runtime_s,
            thermal_warnings=result.thermal_warnings,
            peak_dram_temp_c=result.peak_dram_temp_c,
        )
        self.last_stats = sim.stats
        return result

    def run_all_policies(
        self,
        workload: GraphWorkload,
        graph: CSRGraph,
        policies: Optional[Iterable[str]] = None,
        scenario=None,
    ) -> Dict[str, SimulationResult]:
        """Run the standard evaluation matrix for one workload.

        Returns ``{policy_name: result}`` in evaluation order; the epoch
        trace is generated once (see
        :mod:`repro.workloads.trace_store`) and replayed for every policy.
        """
        names = list(policies) if policies is not None else list(POLICY_NAMES)
        return {
            name: self.run(workload, graph, name, scenario=scenario)
            for name in names
        }
