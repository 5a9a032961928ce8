"""``engine="gang"`` is an alias of the macro engine.

Clients of the removed lockstep gang engine still pass ``"gang"``; its
runs must stay *bit*-equal to macro runs (temperatures and timelines
included) and, through macro, equivalent to the stepped oracle
(tests/gpu/test_macro_equivalence.py).
"""

import pytest

from repro.core.policies import make_policy
from repro.gpu.simulator import SystemSimulator
from repro.hmc.config import HMC_2_0
from repro.hmc.flow import HmcFlowModel
from repro.thermal.cooling import COMMODITY_SERVER
from repro.thermal.model import HmcThermalModel
from repro.thermal.sensor import ThermalSensor

from tests.gpu.test_macro_equivalence import (
    EXACT_COUNTERS,
    EXACT_FIELDS,
    POLICY_NAMES,
    assert_equivalent,
    hot_launch,
    run_both,
)


def run_engine(launch, policy, engine):
    sim = SystemSimulator(
        flow=HmcFlowModel(HMC_2_0),
        thermal=HmcThermalModel(HMC_2_0, cooling=COMMODITY_SERVER),
        sensor=ThermalSensor(),
        engine=engine,
    )
    assert sim.engine == "macro"
    result = sim.run(launch, make_policy(policy))
    return result, sim.stats.snapshot()


def assert_bit_equal(got, ref, label=""):
    """*Exact* equality, temperatures and timeline instants included."""
    rg, sg = got
    rs, ss = ref
    for field in EXACT_FIELDS:
        assert getattr(rg, field) == getattr(rs, field), (label, field)
    assert rg.peak_dram_temp_c == rs.peak_dram_temp_c, label
    assert rg.timeline == rs.timeline, label
    for key in EXACT_COUNTERS:
        assert sg.get(key) == ss.get(key), (label, key)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_gang_matches_macro_and_stepped(policy):
    """Chained contract on a hot trace: gang ≡ macro (exact) and
    macro ≡ stepped (the documented engine equivalence)."""
    launch = hot_launch()
    out = run_both(launch, policy)
    assert_equivalent(out)
    gang = run_engine(launch, policy, "gang")
    assert_bit_equal(gang, out["macro"][:2], label=policy)


def test_gang_of_one_is_macro():
    """The facade accepts the alias and runs the macro engine."""
    from repro.core import CoolPimSystem
    from repro.graph import get_dataset
    from repro.workloads import get_workload

    graph = get_dataset("ldbc-tiny")
    wl = get_workload("pagerank")
    got = CoolPimSystem(engine="gang").run(wl, graph, "coolpim-sw")
    ref = CoolPimSystem(engine="macro").run(wl, graph, "coolpim-sw")
    assert got.to_dict(include_timeline=True) == ref.to_dict(
        include_timeline=True
    )
