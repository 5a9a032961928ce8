"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.token_pool import PimTokenPool
from repro.graph.csr import CSRGraph
from repro.hmc.dram_timing import TemperaturePhase, TemperaturePhasePolicy
from repro.hmc.flow import HMC_2_0, HmcFlowModel, TrafficDemand
from repro.hmc.isa import (
    PimInstruction,
    PimOpcode,
    decode_operand,
    encode_operand,
    execute_semantics,
)
from repro.hmc.memory import BackingStore
from repro.hmc.packet import FLIT_BYTES, PacketType, flit_cost
from repro.sim.trace import OpBatch, TraceCursor


# ---------------------------------------------------------------------------
# CSR: from_edges preserves the edge set (modulo dedup).
# ---------------------------------------------------------------------------
@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=120))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


@given(edge_lists())
def test_csr_preserves_edge_set(data):
    n, src, dst = data
    g = CSRGraph.from_edges(n, src, dst)
    original = set(zip(src.tolist(), dst.tolist()))
    rebuilt = set()
    for v in range(n):
        for u in g.neighbors(v):
            rebuilt.add((v, int(u)))
    assert rebuilt == original
    assert g.num_edges == len(original)


@given(edge_lists())
def test_csr_expand_consistent_with_neighbors(data):
    n, src, dst = data
    g = CSRGraph.from_edges(n, src, dst)
    frontier = np.arange(n, dtype=np.int64)
    s, d, _ = g.expand(frontier)
    assert s.size == g.num_edges
    # per-source counts match degrees
    assert np.array_equal(np.bincount(s, minlength=n), np.diff(g.indptr))


@given(edge_lists())
def test_csr_reverse_is_involution(data):
    n, src, dst = data
    g = CSRGraph.from_edges(n, src, dst)
    rr = g.reversed().reversed()
    assert np.array_equal(rr.indptr, g.indptr)
    assert np.array_equal(rr.indices, g.indices)


# ---------------------------------------------------------------------------
# Backing store: byte-level read-your-writes.
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(0, 8000), st.binary(min_size=1, max_size=64)),
        max_size=20,
    )
)
def test_backing_store_read_your_writes(writes):
    store = BackingStore(1 << 14)
    shadow = bytearray(1 << 14)
    for addr, data in writes:
        store.write(addr, data)
        shadow[addr : addr + len(data)] = data
    assert store.read(0, 1 << 14) == bytes(shadow)


# ---------------------------------------------------------------------------
# PIM semantics: results always fit the operand width; encode/decode
# round-trips; failed conditionals never change memory.
# ---------------------------------------------------------------------------
_INT_OPS = [
    PimOpcode.ADD_IMM, PimOpcode.ADD_IMM_RET, PimOpcode.SWAP,
    PimOpcode.BIT_WRITE, PimOpcode.AND_IMM, PimOpcode.OR_IMM,
    PimOpcode.CAS_EQUAL, PimOpcode.CAS_GREATER, PimOpcode.CAS_LESS,
]


@given(
    op=st.sampled_from(_INT_OPS),
    old=st.integers(-(2**31), 2**31 - 1),
    imm=st.integers(-(2**31), 2**31 - 1),
    cmp_=st.integers(-(2**31), 2**31 - 1),
)
def test_pim_int_results_fit_operand_width(op, old, imm, cmp_):
    inst = PimInstruction(op, address=0, immediate=imm, compare=cmp_)
    new, _flag = execute_semantics(old, inst)
    assert -(2**31) <= int(new) <= 2**31 - 1
    raw = encode_operand(new, op, 4)
    assert decode_operand(raw, op, 4) == int(new)


@given(
    old=st.integers(-(2**31), 2**31 - 1),
    imm=st.integers(-(2**31), 2**31 - 1),
)
def test_cas_greater_failure_is_identity(old, imm):
    inst = PimInstruction(PimOpcode.CAS_GREATER, 0, imm)
    new, flag = execute_semantics(old, inst)
    if not flag:
        assert new == old
    else:
        assert imm > old and new == imm


@given(st.integers(-(2**31), 2**31 - 1), st.integers(0, 200))
def test_repeated_add_linear(start, n):
    store = BackingStore(4096)
    store.write(0, encode_operand(start, PimOpcode.ADD_IMM, 4))
    inst = PimInstruction(PimOpcode.ADD_IMM, 0, 1)
    for _ in range(n):
        store.execute_pim(inst)
    got = decode_operand(store.read(0, 4), PimOpcode.ADD_IMM, 4)
    expected = start + n
    # two's-complement wrap
    expected = (expected + 2**31) % 2**32 - 2**31
    assert got == expected


# ---------------------------------------------------------------------------
# Token pool: issued never exceeds size after drain; reduce never negative.
# ---------------------------------------------------------------------------
@given(st.lists(st.sampled_from(["request", "release", "reduce"]), max_size=80))
def test_token_pool_invariants(ops):
    pool = PimTokenPool(size=8)
    outstanding = 0
    for op in ops:
        if op == "request":
            if pool.request():
                outstanding += 1
        elif op == "release":
            if outstanding:
                pool.release()
                outstanding -= 1
        else:
            pool.reduce(2)
        assert pool.size >= 0
        assert pool.issued == outstanding
        assert pool.available >= 0


# ---------------------------------------------------------------------------
# Trace totals: counts are conserved exactly.
# ---------------------------------------------------------------------------
batches = st.builds(
    OpBatch,
    reads=st.integers(0, 10**6),
    writes=st.integers(0, 10**6),
    atomics=st.integers(0, 10**6),
    threads=st.integers(0, 10**4),
    divergent_warp_ratio=st.floats(0.0, 1.0),
)


@given(st.lists(batches, min_size=1, max_size=10))
def test_merge_conserves_counts(bs):
    m = TraceCursor(bs).totals()
    assert m.reads == sum(b.reads for b in bs)
    assert m.atomics == sum(b.atomics for b in bs)
    assert 0.0 <= m.divergent_warp_ratio <= 1.0


# ---------------------------------------------------------------------------
# Flow model: service time is monotone in demand and consistent with the
# FLIT arithmetic of Table I.
# ---------------------------------------------------------------------------
demands = st.builds(
    TrafficDemand,
    reads=st.integers(0, 10**5),
    writes=st.integers(0, 10**5),
    host_atomics=st.integers(0, 10**5),
    pim_ops=st.integers(0, 10**5),
    pim_ops_ret=st.integers(0, 10**5),
)


@given(demands, demands)
def test_flow_service_time_superadditive_components(d1, d2):
    flow = HmcFlowModel(HMC_2_0)
    combined = TrafficDemand(
        reads=d1.reads + d2.reads,
        writes=d1.writes + d2.writes,
        host_atomics=d1.host_atomics + d2.host_atomics,
        pim_ops=d1.pim_ops + d2.pim_ops,
        pim_ops_ret=d1.pim_ops_ret + d2.pim_ops_ret,
    )
    t1 = flow.service_time_ns(d1)
    t2 = flow.service_time_ns(d2)
    tc = flow.service_time_ns(combined)
    # max-of-bottlenecks: combined at least each part, at most the sum.
    assert tc >= max(t1, t2) - 1e-9
    assert tc <= t1 + t2 + 1e-9


@given(demands)
def test_flow_flits_match_manual_table1_sum(d):
    req = (
        (d.reads + d.host_atomics) * flit_cost(PacketType.READ64)[0]
        + (d.writes + d.host_atomics) * flit_cost(PacketType.WRITE64)[0]
        + d.pim_ops * flit_cost(PacketType.PIM)[0]
        + d.pim_ops_ret * flit_cost(PacketType.PIM_RET)[0]
    )
    assert d.request_flits() == req
    assert d.link_bytes() == (d.request_flits() + d.response_flits()) * FLIT_BYTES


# ---------------------------------------------------------------------------
# Phase policy: monotone phase/derating in temperature.
# ---------------------------------------------------------------------------
@given(st.floats(0.0, 120.0), st.floats(0.0, 120.0))
def test_phase_monotone_in_temperature(t1, t2):
    policy = TemperaturePhasePolicy()
    lo, hi = min(t1, t2), max(t1, t2)
    assert policy.phase(lo) <= policy.phase(hi)
    assert policy.bandwidth_scale(lo) >= policy.bandwidth_scale(hi)


@given(st.floats(0.0, 104.99))
def test_derating_times_energy_never_cools_below_nominal(temp):
    """Hot-phase served-power invariant (see test_dram_timing)."""
    policy = TemperaturePhasePolicy()
    phase = policy.phase(temp)
    assert policy.frequency_scale(phase) * policy.dram_energy_scale(phase) >= 1.0
