"""On-chip memory cell mapping with the per-SLR 80% spill rule.

FPGA on-chip memories come in fixed shapes — BRAM36 tiles (36 Kb, up to 72 b
wide at 512 deep) and URAM tiles (288 Kb, fixed 72 b x 4096).  Beethoven's
Xilinx backend monitors per-SLR utilisation of each cell type during RTL
generation and maps each requested memory to the most efficient type, but
spills to the other type once the preferred one exceeds 80% utilisation on
that SLR (Section II-B).  The paper's A^3 design shows the effect: identical
Value scratchpads implemented as 15 BRAMs in some cores and 16 URAMs in
others, which is what let a 96%-CLB design route at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.fpga.device import FpgaDevice, ResourceVector
from repro.hdl.ir import HdlMemory

BRAM_BITS = 36 * 1024
BRAM_MAX_WIDTH = 72
BRAM_BASE_DEPTH = 512
URAM_BITS = 288 * 1024
URAM_WIDTH = 72
URAM_DEPTH = 4096
LUTRAM_MAX_BITS = 1024  # below this we use distributed RAM

SPILL_THRESHOLD = 0.80


def bram_count(width_bits: int, depth: int) -> int:
    """BRAM36 tiles needed, allowing width/depth cascading.

    A BRAM36 offers width x depth trade-offs (72x512, 36x1024, 18x2048,
    9x4096, ...).  We pick the aspect that minimises tile count.  Dual-port
    behaviour is native, so port count does not change the tile count for
    the 1R1W memories Beethoven generates.
    """
    best = None
    width_cfg = BRAM_MAX_WIDTH
    depth_cfg = BRAM_BASE_DEPTH
    while width_cfg >= 1:
        tiles = -(-width_bits // width_cfg) * -(-depth // depth_cfg)
        if best is None or tiles < best:
            best = tiles
        width_cfg //= 2
        depth_cfg *= 2
    return max(best, 1)


def uram_count(width_bits: int, depth: int) -> int:
    """URAM tiles needed (fixed 72 x 4096 geometry, cascadable)."""
    return max(-(-width_bits // URAM_WIDTH) * -(-depth // URAM_DEPTH), 1)


@lru_cache(maxsize=1024)
def _tile_counts(width_bits: int, depth: int) -> Tuple[int, int]:
    """``(BRAM36, URAM)`` tiles for one memory shape.

    A design repeats a handful of shapes across all of its cores, and a
    core-count search repeats them across every design point, so each shape
    is computed once; the bound only matters to a process that generates
    thousands of distinct shapes.
    """
    return bram_count(width_bits, depth), uram_count(width_bits, depth)


@dataclass
class MemcellUsage:
    bram: int = 0
    uram: int = 0
    lutram_bits: int = 0


@dataclass
class MemcellMapper:
    """Per-SLR stateful mapper applying the preference + spill policy."""

    device: FpgaDevice
    spill_enabled: bool = True
    usage: Dict[int, MemcellUsage] = field(default_factory=dict, init=False)
    spills: int = field(default=0, init=False)
    infeasible: List[str] = field(default_factory=list, init=False)
    #: Per-SLR free capacity, read from the device once per mapper.
    _free: Dict[int, ResourceVector] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _usage(self, slr: int) -> MemcellUsage:
        return self.usage.setdefault(slr, MemcellUsage())

    def _util(self, slr: int, kind: str, extra: int) -> float:
        free = self._free.get(slr)
        if free is None:
            free = self._free[slr] = self.device.free_capacity(slr)
        cap = getattr(free, kind)
        if cap <= 0:
            return float("inf")
        used = getattr(self._usage(slr), kind)
        return (used + extra) / cap

    def preferred_kind(self, mem: HdlMemory) -> str:
        """The natural cell for this memory shape, ignoring utilisation."""
        if mem.bits <= LUTRAM_MAX_BITS:
            return "LUTRAM"
        n_bram, n_uram = _tile_counts(mem.width_bits, mem.depth)
        # Efficiency: bits wasted per implementing tile set; ties break
        # toward fewer tiles (less cascading logic and routing).
        bram_waste = n_bram * BRAM_BITS - mem.bits
        uram_waste = n_uram * URAM_BITS - mem.bits
        if bram_waste == uram_waste:
            return "BRAM" if n_bram <= n_uram else "URAM"
        return "BRAM" if bram_waste < uram_waste else "URAM"

    def map_memory(self, mem: HdlMemory, slr: int, path: str = "") -> str:
        """Choose and record a cell mapping for ``mem`` on ``slr``.

        Returns the mapping kind and annotates ``mem.cell_mapping``.
        """
        kind = self.preferred_kind(mem)
        if kind == "LUTRAM":
            self._usage(slr).lutram_bits += mem.bits
            mem.cell_mapping = "LUTRAM"
            return "LUTRAM"
        n_bram, n_uram = _tile_counts(mem.width_bits, mem.depth)
        order = ["BRAM", "URAM"] if kind == "BRAM" else ["URAM", "BRAM"]
        if self.spill_enabled:
            primary = order[0]
            count = n_bram if primary == "BRAM" else n_uram
            if self._util(slr, primary.lower(), count) > SPILL_THRESHOLD:
                order.reverse()
                self.spills += 1
        chosen = order[0]
        count = n_bram if chosen == "BRAM" else n_uram
        if self._util(slr, chosen.lower(), count) > 1.0:
            # Preferred (possibly post-spill) type is exhausted; with the
            # spill rule we may fall through to the other type, otherwise
            # the naive flow simply fails to place the memory.
            other = order[1]
            other_count = n_bram if other == "BRAM" else n_uram
            if self.spill_enabled and self._util(slr, other.lower(), other_count) <= 1.0:
                chosen, count = other, other_count
            else:
                self.infeasible.append(path or mem.name)
        usage = self._usage(slr)
        if chosen == "BRAM":
            usage.bram += count
        else:
            usage.uram += count
        mem.cell_mapping = chosen
        return chosen

    def counts(self, mem: HdlMemory) -> Dict[str, int]:
        n_bram, n_uram = _tile_counts(mem.width_bits, mem.depth)
        return {"BRAM": n_bram, "URAM": n_uram}

    @property
    def feasible(self) -> bool:
        return not self.infeasible
