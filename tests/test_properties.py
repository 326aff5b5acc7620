"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic import ASAP7_MACROS, MemoryCompiler
from repro.command import CommandSpec, Field, RoccInstruction, UInt
from repro.dram import MemoryStore
from repro.fpga import FpgaDevice, MemcellMapper, ResourceVector, bram_count, uram_count
from repro.fpga.memcells import BRAM_BITS, LUTRAM_MAX_BITS, URAM_BITS
from repro.hdl.ir import HdlMemory
from repro.kernels.attention.fixedpoint import exp2_fixed
from repro.memory import split_into_bursts
from repro.runtime import FirstFitAllocator
from repro.sim import ChannelQueue

# ------------------------------------------------------------------ channels
@settings(max_examples=60)
@given(
    capacity=st.integers(1, 8),
    ops=st.lists(st.sampled_from(["push", "pop", "commit"]), max_size=60),
)
def test_channel_queue_invariants(capacity, ops):
    """Occupancy never exceeds capacity; pops return pushes in FIFO order."""
    chan = ChannelQueue(capacity, "prop")
    pushed, popped = [], []
    counter = 0
    for op in ops:
        if op == "push" and chan.can_push():
            chan.push(counter)
            pushed.append(counter)
            counter += 1
        elif op == "pop" and chan.can_pop():
            popped.append(chan.pop())
        elif op == "commit":
            chan.commit()
        assert len(chan._items) <= capacity
    chan.commit()
    while chan.can_pop():
        popped.append(chan.pop())
        chan.commit()
    assert popped == pushed[: len(popped)]
    assert popped == sorted(popped)


# -------------------------------------------------------------------- bursts
@settings(max_examples=100)
@given(
    addr_blocks=st.integers(0, 10_000),
    length=st.integers(1, 300_000),
    max_beats=st.integers(1, 64),
)
def test_split_into_bursts_properties(addr_blocks, length, max_beats):
    beat = 64
    addr = addr_blocks * beat
    segs = split_into_bursts(addr, length, beat, max_beats)
    # Exact coverage, in order, no overlap.
    assert segs[0][0] == addr
    total = 0
    pos = addr
    for seg_addr, beats, payload in segs:
        assert seg_addr == pos
        assert 1 <= beats <= max_beats
        assert payload <= beats * beat
        assert (seg_addr // 4096) == ((seg_addr + beats * beat - 1) // 4096)
        pos += payload
        total += payload
    assert total == length


# --------------------------------------------------------------------- store
@settings(max_examples=60)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 2000), st.binary(min_size=1, max_size=200)),
        max_size=12,
    )
)
def test_memory_store_matches_flat_model(writes):
    store = MemoryStore(block_bytes=64)
    flat = bytearray(4096)
    for addr, data in writes:
        store.write(addr, data)
        flat[addr : addr + len(data)] = data
    assert store.read(0, 4096) == bytes(flat)


# ---------------------------------------------------------------------- RoCC
@settings(max_examples=80)
@given(
    system_id=st.integers(0, 255),
    core_id=st.integers(0, 255),
    funct7=st.integers(0, 127),
    rs1=st.integers(0, 2**64 - 1),
    rs2=st.integers(0, 2**64 - 1),
    xd=st.booleans(),
    rd=st.integers(0, 31),
)
def test_rocc_roundtrip_property(system_id, core_id, funct7, rs1, rs2, xd, rd):
    inst = RoccInstruction(system_id, core_id, funct7, rs1, rs2, xd, rd)
    assert RoccInstruction.decode_words(inst.encode_words()) == inst


@settings(max_examples=50)
@given(
    widths=st.lists(st.integers(1, 64), min_size=1, max_size=8),
    addr_bits=st.sampled_from([32, 34, 40, 64]),
    data=st.data(),
)
def test_command_packing_roundtrip_property(widths, addr_bits, data):
    fields = tuple(Field(f"f{i}", UInt(w)) for i, w in enumerate(widths))
    spec = CommandSpec("prop", fields)
    values = {
        f"f{i}": data.draw(st.integers(0, 2**w - 1)) for i, w in enumerate(widths)
    }
    assert spec.unpack(spec.pack(values, addr_bits), addr_bits) == values


# ----------------------------------------------------------------- allocator
@settings(max_examples=50)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("malloc"), st.integers(1, 5000)),
            st.tuples(st.just("free"), st.integers(0, 20)),
        ),
        max_size=40,
    )
)
def test_allocator_no_overlap_property(ops):
    alloc = FirstFitAllocator(0, 1 << 16, alignment=64)
    live = {}
    for op, arg in ops:
        if op == "malloc":
            try:
                addr = alloc.malloc(arg)
            except MemoryError:
                continue
            # No overlap with any live allocation.
            for a, s in live.items():
                assert addr + arg <= a or a + s <= addr
            live[addr] = arg
        elif live:
            key = sorted(live)[arg % len(live)]
            alloc.free(key)
            del live[key]
    # Conservation: free bytes + aligned live bytes == heap size.
    aligned = sum((s + 63) // 64 * 64 for s in live.values())
    assert alloc.free_bytes + aligned == 1 << 16


# ------------------------------------------------------------------ memcells
@settings(max_examples=80)
@given(width=st.integers(1, 2048), depth=st.integers(1, 100_000))
def test_cell_counts_cover_demand(width, depth):
    bits = width * depth
    assert bram_count(width, depth) * BRAM_BITS >= bits
    assert uram_count(width, depth) * URAM_BITS >= bits


class _PerCallMapper(MemcellMapper):
    """The mapper as it was before shapes and free capacity were cached:
    tile counts and ``free_capacity`` recomputed on every call."""

    def _util(self, slr, kind, extra):
        cap = getattr(self.device.free_capacity(slr), kind)
        if cap <= 0:
            return float("inf")
        return (getattr(self._usage(slr), kind) + extra) / cap

    def preferred_kind(self, mem):
        if mem.bits <= LUTRAM_MAX_BITS:
            return "LUTRAM"
        n_bram = bram_count(mem.width_bits, mem.depth)
        n_uram = uram_count(mem.width_bits, mem.depth)
        bram_waste = n_bram * BRAM_BITS - mem.bits
        uram_waste = n_uram * URAM_BITS - mem.bits
        if bram_waste == uram_waste:
            return "BRAM" if n_bram <= n_uram else "URAM"
        return "BRAM" if bram_waste < uram_waste else "URAM"

    def map_memory(self, mem, slr, path=""):
        kind = self.preferred_kind(mem)
        if kind == "LUTRAM":
            self._usage(slr).lutram_bits += mem.bits
            return "LUTRAM"
        n_bram = bram_count(mem.width_bits, mem.depth)
        n_uram = uram_count(mem.width_bits, mem.depth)
        order = ["BRAM", "URAM"] if kind == "BRAM" else ["URAM", "BRAM"]
        if self.spill_enabled:
            count = n_bram if order[0] == "BRAM" else n_uram
            if self._util(slr, order[0].lower(), count) > self.spill_threshold:
                order.reverse()
                self.spills += 1
        chosen = order[0]
        count = n_bram if chosen == "BRAM" else n_uram
        if self._util(slr, chosen.lower(), count) > 1.0:
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
        return chosen

    def counts(self, mem):
        return {
            "BRAM": bram_count(mem.width_bits, mem.depth),
            "URAM": uram_count(mem.width_bits, mem.depth),
        }


_slr_inventory = st.tuples(st.integers(0, 80), st.integers(0, 24), st.integers(0, 8))


@settings(max_examples=60)
@given(
    slrs=st.lists(_slr_inventory, min_size=1, max_size=3),
    spill_enabled=st.booleans(),
    data=st.data(),
)
def test_memcell_mapper_matches_per_call_reference(slrs, spill_enabled, data):
    device = FpgaDevice(
        "prop",
        [ResourceVector(bram=bram, uram=uram) for bram, uram, _ in slrs],
        shell_usage={i: ResourceVector(bram=shell) for i, (_, _, shell) in enumerate(slrs)},
    )
    shapes = data.draw(
        st.lists(
            st.tuples(
                st.integers(1, 600), st.integers(1, 20_000), st.integers(0, len(slrs) - 1)
            ),
            max_size=40,
        )
    )
    mapper = MemcellMapper(device, spill_enabled=spill_enabled)
    reference = _PerCallMapper(device, spill_enabled=spill_enabled)
    for i, (width, depth, slr) in enumerate(shapes):
        mem = HdlMemory(f"m{i}", width, depth)
        assert mapper.map_memory(mem, slr, f"p{i}") == reference.map_memory(mem, slr, f"p{i}")
        assert mapper.counts(mem) == reference.counts(mem)
    assert mapper.spills == reference.spills
    assert mapper.infeasible == reference.infeasible
    assert mapper.usage == reference.usage


# ------------------------------------------------------------ memory compiler
@settings(max_examples=60)
@given(width=st.integers(1, 1024), depth=st.integers(1, 20_000))
def test_memory_compiler_covers_request(width, depth):
    plan = MemoryCompiler(ASAP7_MACROS).compile(width, depth)
    assert plan.lanes * plan.macro.width_bits >= width
    assert plan.banks * plan.macro.depth >= depth
    assert 0 < plan.efficiency <= 1.0


# -------------------------------------------------------------- fixed point
@settings(max_examples=40)
@given(
    xs=st.lists(st.integers(-40 * (1 << 18), 0), min_size=2, max_size=50),
)
def test_exp2_fixed_monotone_property(xs):
    arr = np.array(sorted(xs), dtype=np.int64)
    ys = exp2_fixed(arr, 18)
    assert (np.diff(ys) >= 0).all()
    assert (ys >= 0).all()
    assert ys.max() <= 1 << 15
