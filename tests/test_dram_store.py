"""Property test for ``MemoryStore``'s one-block fast paths.

``read`` and ``write`` take a shortcut for exactly one block-aligned block
with no byte strobe (one DRAM column).  Random sequences of aligned and
unaligned, whole-block and partial, strobed and unstrobed accesses, reads of
untouched blocks included, run against three things at once:

* the store under test, called as the controller and the host call it;
* a second store that receives the same accesses in a form the fast paths
  never see (an all-ones strobe, byte-by-byte reads): the general path;
* a plain ``bytearray``.

Every read returns the bytearray's bytes, both stores touch the same blocks
(``touched_bytes`` and the block indices), and a block, once created, stays
the same ``bytearray`` object: writes land in place, so whoever holds a block
sees them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.dram.store import MemoryStore

BLOCK = 16
N_BLOCKS = 8
SPAN = (N_BLOCKS + 2) * BLOCK  # accesses may run past the last block


@st.composite
def access(draw):
    if draw(st.booleans()):  # one whole aligned block: the fast path's shape
        addr, length = draw(st.integers(0, N_BLOCKS - 1)) * BLOCK, BLOCK
    else:
        addr = draw(st.integers(0, N_BLOCKS * BLOCK - 1))
        length = draw(st.integers(0, 2 * BLOCK))
    if draw(st.booleans()):
        return "read", addr, length, None, None
    data = draw(st.binary(min_size=length, max_size=length))
    strb = draw(st.none() | st.lists(st.integers(0, 1), min_size=length, max_size=length).map(bytes))
    return "write", addr, length, data, strb


def general_read(store: MemoryStore, addr: int, length: int) -> bytes:
    return b"".join(store.read(addr + i, 1) for i in range(length))


def check(accesses) -> None:
    fast, general = MemoryStore(BLOCK), MemoryStore(BLOCK)
    image = bytearray(SPAN)
    held = {}  # block index -> the bytearray first seen there
    for kind, addr, length, data, strb in accesses:
        if kind == "read":
            want = bytes(image[addr:addr + length])
            assert fast.read(addr, length) == want
            assert general_read(general, addr, length) == want
        else:
            fast.write(addr, data, strb)
            general.write(addr, data, bytes([1] * length) if strb is None else strb)
            for i in range(length):
                if strb is None or strb[i]:
                    image[addr + i] = data[i]
        assert fast._blocks.keys() == general._blocks.keys()
        assert fast.touched_bytes == general.touched_bytes
        for index, blk in fast._blocks.items():
            assert held.setdefault(index, blk) is blk
            assert blk == image[index * BLOCK:(index + 1) * BLOCK]
    # A read of a never-written block creates nothing.
    before = dict(fast._blocks)
    assert fast.read(SPAN, BLOCK) == bytes(BLOCK)
    assert fast._blocks == before


@seed(30)
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(access(), max_size=40))
def test_fast_paths_match_the_general_path_and_a_bytearray(accesses):
    check(accesses)


@pytest.mark.slow
@seed(31)
@settings(max_examples=5000, derandomize=True, database=None, deadline=None)
@given(st.lists(access(), max_size=80))
def test_fast_paths_long_sweep(accesses):
    check(accesses)


def test_a_whole_block_write_lands_in_the_held_block():
    store = MemoryStore(BLOCK)
    store.write(BLOCK, bytes(range(BLOCK)))
    blk = store._blocks[1]
    store.write(BLOCK, bytes(range(100, 100 + BLOCK)))
    assert store._blocks[1] is blk and bytes(blk) == bytes(range(100, 100 + BLOCK))


def test_the_address_checks_hold_on_the_fast_path():
    store = MemoryStore(BLOCK)
    with pytest.raises(ValueError):
        store.read(-BLOCK, BLOCK)
    with pytest.raises(ValueError):
        store.write(-BLOCK, bytes(BLOCK))
    with pytest.raises(ValueError):
        store.write(0, bytes(BLOCK), bytes(BLOCK - 1))
    assert store.touched_bytes == 0
