"""Vault controller: address mapping, bank dispatch, PIM execution.

A vault is functionally independent (Sec. II-A): its controller owns the
banks of the memory partitions stacked above it and, in HMC 2.0, the PIM
functional unit placed beside it. The controller here is a simple in-order
per-bank scheduler — requests to different banks proceed in parallel;
requests to the same bank serialize (and PIM RMWs lock the bank for their
full read-modify-write).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hmc.bank import DramBank
from repro.hmc.config import HmcConfig
from repro.hmc.memory import BackingStore
from repro.hmc.packet import PacketType, Request, Response
from repro.hmc.pim_unit import PimUnit


@dataclass
class VaultStats:
    requests: int = 0
    reads: int = 0
    writes: int = 0
    pim_ops: int = 0


class AddressMap:
    """Physical address → (vault, bank, bank-local address).

    Low-order interleaving at 32-byte granularity (the TSV access
    granularity) spreads sequential addresses across vaults, then banks —
    the standard HMC mapping that maximizes vault-level parallelism.
    """

    def __init__(self, config: HmcConfig) -> None:
        self.config = config
        self.granularity = config.dram_access_granularity_bytes

    def decode(self, address: int) -> tuple[int, int, int]:
        """Return (vault_id, bank_id, local_address)."""
        if not 0 <= address < self.config.capacity_bytes:
            raise ValueError(
                f"address {address:#x} outside capacity {self.config.capacity_bytes:#x}"
            )
        block = address // self.granularity
        offset = address % self.granularity
        vault = block % self.config.num_vaults
        block //= self.config.num_vaults
        bank = block % self.config.banks_per_vault
        block //= self.config.banks_per_vault
        local = block * self.granularity + offset
        return vault, bank, local

class VaultController:
    """One vault: banks + FU + in-order-per-bank scheduling."""

    def __init__(
        self,
        vault_id: int,
        config: HmcConfig,
        store: BackingStore,
        fu_energy_per_bit_j: float = 6.0e-12,
    ) -> None:
        self.vault_id = vault_id
        self.config = config
        self.store = store
        self.banks: List[DramBank] = [
            DramBank(config.timing, bank_id=b) for b in range(config.banks_per_vault)
        ]
        self.pim_unit = PimUnit(fu_energy_per_bit_j, vault_id=vault_id)
        self.stats = VaultStats()

    def set_frequency_scale(self, scale: float) -> None:
        """Propagate temperature derating to all banks."""
        for bank in self.banks:
            bank.set_frequency_scale(scale)

    def set_refresh_multiplier(self, multiplier: int) -> None:
        """Propagate hot-phase refresh-rate multiplier to all banks."""
        for bank in self.banks:
            bank.set_refresh_multiplier(multiplier)

    def service(self, req: Request, bank_id: int, local_addr: int, now: float) -> Response:
        """Service one request; returns the response with completion time.

        ``now`` is the time the request reaches the vault controller. The
        returned :class:`Response` carries ``complete_time_ns`` — when the
        vault finishes the DRAM access (link serialization is added by the
        cube model).
        """
        if not 0 <= bank_id < len(self.banks):
            raise ValueError(f"bank {bank_id} out of range for vault {self.vault_id}")
        bank = self.banks[bank_id]
        self.stats.requests += 1

        if req.ptype is PacketType.READ64:
            done = bank.access_read(local_addr, now)
            data = self.store.read(req.address, 64)
            self.stats.reads += 1
            return Response(
                tag=req.tag, ptype=req.ptype, data=data, complete_time_ns=done
            )

        if req.ptype is PacketType.WRITE64:
            done = bank.access_write(local_addr, now)
            # Functional write of a 64-byte line of zeros placeholder is
            # wrong; writes carry no payload in our Request, so the cube
            # level performs functional writes. Timing only here.
            self.stats.writes += 1
            return Response(tag=req.tag, ptype=req.ptype, complete_time_ns=done)

        if req.ptype in (PacketType.PIM, PacketType.PIM_RET):
            if not self.config.supports_pim:
                raise ValueError(f"{self.config.name} does not support PIM")
            inst = req.pim
            assert inst is not None  # validated by Request.__post_init__
            fu_lat = self.pim_unit.latency_ns(inst)
            done = bank.access_pim_rmw(local_addr, fu_lat, now)
            old, flag = self.pim_unit.execute(inst, self.store)
            self.stats.pim_ops += 1
            data = old if req.ptype is PacketType.PIM_RET else b""
            return Response(
                tag=req.tag,
                ptype=req.ptype,
                atomic_flag=flag,
                data=data,
                complete_time_ns=done,
            )

        raise ValueError(f"unhandled packet type {req.ptype}")

    def busiest_bank_ready(self) -> float:
        """Latest ready-time across banks (drain horizon)."""
        return max(bank.ready_at for bank in self.banks)
