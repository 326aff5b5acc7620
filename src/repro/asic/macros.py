"""SRAM macro libraries and the cascading/banking memory compiler.

ASIC toolchains require SRAM cells to be instantiated by hand from a fixed
menu of foundry macros.  Beethoven provides "a memory compiler-like utility
that cascades and banks the SRAM cells available in the technology library to
produce the memory requested by the developer" (Section II-D).  This module
is that utility: given a requested width x depth x ports, it picks a macro
and computes the lane (width cascade) and bank (depth cascade) arrangement
with minimum area, including the mux/decode overhead of banking.

Macro menus are modelled on the public ASAP7 SRAM generators and the Synopsys
educational PDK: sizes and areas are representative, not sign-off numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class SramMacro:
    """One foundry SRAM macro."""

    name: str
    width_bits: int
    depth: int
    n_rw_ports: int
    area_um2: float

    @property
    def bits(self) -> int:
        return self.width_bits * self.depth


#: ASAP7-style single- and dual-port macro menu.
ASAP7_MACROS: Sequence[SramMacro] = (
    SramMacro("asap7_sram_1rw_32x64", 32, 64, 1, 580.0),
    SramMacro("asap7_sram_1rw_32x128", 32, 128, 1, 1_020.0),
    SramMacro("asap7_sram_1rw_64x256", 64, 256, 1, 3_600.0),
    SramMacro("asap7_sram_1rw_64x512", 64, 512, 1, 6_700.0),
    SramMacro("asap7_sram_1rw_72x1024", 72, 1024, 1, 14_500.0),
    SramMacro("asap7_sram_2rw_32x128", 32, 128, 2, 1_900.0),
    SramMacro("asap7_sram_2rw_64x256", 64, 256, 2, 6_500.0),
    SramMacro("asap7_sram_2rw_64x512", 64, 512, 2, 12_100.0),
)

#: Synopsys educational PDK (SAED-style) macro menu.
SAED_MACROS: Sequence[SramMacro] = (
    SramMacro("saed_sram_1rw_16x64", 16, 64, 1, 2_400.0),
    SramMacro("saed_sram_1rw_32x256", 32, 256, 1, 9_800.0),
    SramMacro("saed_sram_1rw_64x512", 64, 512, 1, 33_000.0),
    SramMacro("saed_sram_2rw_32x128", 32, 128, 2, 11_000.0),
)


@dataclass(frozen=True)
class MacroPlan:
    """How a requested memory maps onto macros."""

    macro: SramMacro
    lanes: int  # width cascade
    banks: int  # depth cascade
    requested_bits: int

    @property
    def n_macros(self) -> int:
        return self.lanes * self.banks

    @property
    def total_bits(self) -> int:
        return self.n_macros * self.macro.bits

    @property
    def area_um2(self) -> float:
        # Bank decode/mux overhead grows with the bank count.
        overhead = 1.0 + 0.02 * max(self.banks - 1, 0)
        return self.n_macros * self.macro.area_um2 * overhead

    @property
    def efficiency(self) -> float:
        return self.requested_bits / self.total_bits


class MemoryCompilerError(ValueError):
    pass


class MemoryCompiler:
    """Selects the minimum-area macro arrangement for a request."""

    def __init__(self, macros: Sequence[SramMacro] = ASAP7_MACROS) -> None:
        if not macros:
            raise MemoryCompilerError("empty macro library")
        self.macros = list(macros)

    def compile(self, width_bits: int, depth: int, n_rw_ports: int = 1) -> MacroPlan:
        if width_bits < 1 or depth < 1:
            raise MemoryCompilerError("width and depth must be positive")
        best: Optional[MacroPlan] = None
        for macro in self.macros:
            if macro.n_rw_ports < n_rw_ports:
                continue
            lanes = -(-width_bits // macro.width_bits)
            banks = -(-depth // macro.depth)
            plan = MacroPlan(macro, lanes, banks, width_bits * depth)
            if best is None or plan.area_um2 < best.area_um2:
                best = plan
        if best is None:
            raise MemoryCompilerError(
                f"no macro in the library offers {n_rw_ports} ports"
            )
        return best
