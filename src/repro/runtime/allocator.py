"""FPGA memory-space allocators (paper Section II-C2).

Discrete platforms get a first-fit free-list allocator over the card's
address space, with all allocator state held on the host so separate
processes could share the card without conflicts.  Embedded platforms share
the host address space: the runtime hands out hugepage-aligned *physical*
ranges (modelling the hugepage + page-table-walk trick the paper describes)
and relies on AXI-ACE coherence instead of DMA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class AllocationError(MemoryError):
    pass


@dataclass
class _FreeBlock:
    addr: int
    size: int


class FirstFitAllocator:
    """First-fit allocator with block coalescing on free."""

    _state = ("_free", "_live")

    def __init__(self, base: int, size: int, alignment: int = 64) -> None:
        if size <= 0:
            raise ValueError("allocator size must be positive")
        self.base = base
        self.size = size
        self.alignment = alignment
        self._free: List[_FreeBlock] = [_FreeBlock(base, size)]
        self._live: dict = {}

    def _align(self, n: int) -> int:
        a = self.alignment
        return (n + a - 1) // a * a

    def malloc(self, n_bytes: int) -> int:
        if n_bytes <= 0:
            raise AllocationError("allocation size must be positive")
        need = self._align(n_bytes)
        for i, blk in enumerate(self._free):
            if blk.size >= need:
                addr = blk.addr
                blk.addr += need
                blk.size -= need
                if blk.size == 0:
                    del self._free[i]
                self._live[addr] = need
                return addr
        raise AllocationError(
            f"out of accelerator memory: {n_bytes} bytes requested, "
            f"{self.free_bytes} free"
        )

    def free(self, addr: int) -> None:
        size = self._live.pop(addr, None)
        if size is None:
            raise AllocationError(f"free of unknown address {addr:#x}")
        self._free.append(_FreeBlock(addr, size))
        self._free.sort(key=lambda b: b.addr)
        merged: List[_FreeBlock] = []
        for blk in self._free:
            if merged and merged[-1].addr + merged[-1].size == blk.addr:
                merged[-1].size += blk.size
            else:
                merged.append(blk)
        self._free = merged

    @property
    def free_bytes(self) -> int:
        return sum(b.size for b in self._free)


HUGEPAGE_BYTES = 2 * 1024 * 1024


class EmbeddedAllocator(FirstFitAllocator):
    """Shared-address-space allocator: hugepage-aligned physical ranges."""

    def __init__(self, base: int, size: int) -> None:
        super().__init__(base, size, alignment=HUGEPAGE_BYTES)

    def physical_address_of(self, addr: int) -> int:
        """The paper extracts physical addresses from the OS page table; in
        the model virtual == physical within the reserved region."""
        if addr not in self._live:
            raise AllocationError(f"{addr:#x} is not an active allocation")
        return addr


def make_allocator(discrete: bool, base: int, size: int) -> FirstFitAllocator:
    return FirstFitAllocator(base, size) if discrete else EmbeddedAllocator(base, size)
