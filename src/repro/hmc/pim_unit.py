"""Per-vault PIM functional unit.

Each vault's logic layer hosts one 128-bit fixed-point functional unit
(Sec. V-A: synthesized in 28 nm, 0.003 mm², placed with the vault controller
at the vault centre). The FU executes the atomic's compute step between the
bank read and write-back and accounts the energy that feeds the thermal
model (E_fu Joules/bit × 128 bit per op).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hmc.isa import PimInstruction, PimOpClass
from repro.hmc.memory import BackingStore

#: FU datapath width in bits (HMC 2.0 spec).
FU_WIDTH_BITS = 128


@dataclass
class PimUnitStats:
    ops: int = 0
    ops_with_return: int = 0
    failed_atomics: int = 0
    energy_j: float = 0.0


class PimUnit:
    """Functional-unit model: latency, energy, and functional execution."""

    #: FU latency by op class, in ns (integer ALU ops are single-cycle at
    #: the ~1 GHz logic-layer clock; FP takes a few cycles).
    _LATENCY_NS = {
        PimOpClass.ARITHMETIC: 1.0,
        PimOpClass.BITWISE: 1.0,
        PimOpClass.BOOLEAN: 1.0,
        PimOpClass.COMPARISON: 1.0,
        PimOpClass.FLOATING: 3.0,
    }

    def __init__(self, energy_per_bit_j: float = 6.0e-12, vault_id: int = 0) -> None:
        if energy_per_bit_j < 0:
            raise ValueError(f"negative FU energy: {energy_per_bit_j}")
        self.energy_per_bit_j = energy_per_bit_j
        self.vault_id = vault_id
        self.stats = PimUnitStats()

    def latency_ns(self, inst: PimInstruction) -> float:
        """Compute latency of the FU stage for ``inst``."""
        return self._LATENCY_NS[inst.op_class]

    def energy_j_per_op(self) -> float:
        """Energy of one FU operation (E × FU width)."""
        return self.energy_per_bit_j * FU_WIDTH_BITS

    def execute(self, inst: PimInstruction, store: BackingStore) -> tuple[bytes, bool]:
        """Apply ``inst`` to the backing store; returns (old data, flag)."""
        old, flag = store.execute_pim(inst)
        self.stats.ops += 1
        if inst.has_return:
            self.stats.ops_with_return += 1
        if not flag:
            self.stats.failed_atomics += 1
        self.stats.energy_j += self.energy_j_per_op()
        return old, flag
