"""Sparse functional backing store for the DRAM model.

Keeps data in fixed-size blocks keyed by block index so simulations of large
address spaces only pay for the bytes they touch.  All reads/writes are exact:
a memcpy through the full stack really moves these bytes, which is what lets
every benchmark double as a functional test.
"""

from __future__ import annotations

from typing import Dict, Tuple


class MemoryStore:
    """Byte-addressable sparse memory with block-granular storage."""

    def __init__(self, block_bytes: int = 64) -> None:
        self.block_bytes = block_bytes
        self._blocks: Dict[int, bytearray] = {}

    def _block(self, index: int) -> bytearray:
        blk = self._blocks.get(index)
        if blk is None:
            blk = bytearray(self.block_bytes)
            self._blocks[index] = blk
        return blk

    def read(self, addr: int, length: int) -> bytes:
        if addr < 0 or length < 0:
            raise ValueError("negative address or length")
        size = self.block_bytes
        if length == size and not addr % size:
            # Exactly one block (a DRAM column); a block never written reads
            # as zeros and is not created.
            blk = self._blocks.get(addr // size)
            return bytes(size) if blk is None else bytes(blk)
        out = bytearray(length)
        pos = 0
        while pos < length:
            a = addr + pos
            index, offset = divmod(a, self.block_bytes)
            span = min(self.block_bytes - offset, length - pos)
            blk = self._blocks.get(index)
            if blk is not None:
                out[pos : pos + span] = blk[offset : offset + span]
            pos += span
        return bytes(out)

    def write(self, addr: int, data: bytes, strb: bytes = None) -> None:
        if addr < 0:
            raise ValueError("negative address")
        size = self.block_bytes
        if strb is None:
            if len(data) == size and not addr % size:
                # Exactly one block, every byte valid.  An existing block is
                # overwritten in place: whoever holds it sees the write.
                blk = self._blocks.get(addr // size)
                if blk is None:
                    self._blocks[addr // size] = bytearray(data)
                else:
                    blk[:] = data
                return
        elif len(strb) != len(data):
            raise ValueError("strb length mismatch")
        pos = 0
        length = len(data)
        while pos < length:
            a = addr + pos
            index, offset = divmod(a, self.block_bytes)
            span = min(self.block_bytes - offset, length - pos)
            blk = self._block(index)
            if strb is None:
                blk[offset : offset + span] = data[pos : pos + span]
            else:
                for i in range(span):
                    if strb[pos + i]:
                        blk[offset + i] = data[pos + i]
            pos += span

    # ------------------------------------------------------------- snapshot
    def snapshot_state(self, fr) -> Tuple[int, Tuple[int, ...], bytes]:
        """One flat image instead of a marker per block: the block size, the
        touched block indices in address order, and their bytes joined."""
        indices = sorted(self._blocks)
        return self.block_bytes, tuple(indices), b"".join(map(self._blocks.__getitem__, indices))

    def restore_state(self, state, th) -> None:
        self.block_bytes, indices, image = state
        size = self.block_bytes
        view = memoryview(image)
        # In place: the controller and the host both hold this dict's owner.
        blocks = self.__dict__.setdefault("_blocks", {})
        blocks.clear()
        for i, index in enumerate(indices):
            blocks[index] = bytearray(view[i * size : (i + 1) * size])

    @property
    def touched_bytes(self) -> int:
        return len(self._blocks) * self.block_bytes
