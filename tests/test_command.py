"""Tests for the RoCC command subsystem: packing, routing, adapters."""

import pickle
import struct

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.command import (
    Address,
    BeethovenIO,
    CommandRouter,
    CommandSpec,
    CoreCommandAdapter,
    EmptyAccelResponse,
    Field,
    Float32,
    MmioFrontend,
    ResponseSpec,
    RoccInstruction,
    RoccResponse,
    UInt,
)
from repro.sim import SimulationError, Simulator


# ----------------------------------------------------------------------- RoCC
def test_rocc_word_roundtrip():
    inst = RoccInstruction(
        system_id=3, core_id=7, funct7=5, rs1=0x1122334455667788,
        rs2=0xAABBCCDDEEFF0011, xd=True, rd=13,
    )
    assert RoccInstruction.decode_words(inst.encode_words()) == inst


def test_rocc_response_roundtrip():
    resp = RoccResponse(system_id=2, core_id=9, rd=4, data=0xDEADBEEFCAFEF00D)
    assert RoccResponse.decode_words(resp.encode_words()) == resp


def test_rocc_field_validation():
    with pytest.raises(ValueError):
        RoccInstruction(0, 0, funct7=200, rs1=0, rs2=0)
    with pytest.raises(ValueError):
        RoccInstruction(0, 0, funct7=0, rs1=-1, rs2=0)
    with pytest.raises(ValueError):
        RoccInstruction(0, 0, funct7=0, rs1=0, rs2=0, rd=32)


# ------------------------------------------------------------------- packing
def test_small_command_fits_one_chunk():
    spec = CommandSpec("s", (Field("a", UInt(32)), Field("b", UInt(64))))
    assert spec.n_chunks(addr_bits=34) == 1


def test_wide_command_splits_chunks():
    spec = CommandSpec(
        "wide",
        (Field("a", UInt(64)), Field("b", UInt(64)), Field("c", UInt(64))),
    )
    assert spec.n_chunks(addr_bits=34) == 2
    values = {"a": 2**63 + 1, "b": 12345, "c": 2**64 - 1}
    chunks = spec.pack(values, 34)
    assert len(chunks) == 2
    assert spec.unpack(chunks, 34) == values


def test_address_field_width_follows_platform():
    spec = CommandSpec("s", (Field("p", Address()), Field("n", UInt(32))))
    assert spec.total_bits(addr_bits=34) == 66
    assert spec.total_bits(addr_bits=64) == 96
    # Same values, different bit layouts: both round-trip.
    values = {"p": 0x3_0000_0000, "n": 99}
    for bits in (34, 40, 64):
        assert spec.unpack(spec.pack(values, bits), bits) == values


def test_float_field_roundtrip():
    spec = CommandSpec("f", (Field("x", Float32()),))
    out = spec.unpack(spec.pack({"x": 3.25}, 34), 34)
    assert out["x"] == 3.25


def test_pack_validates_fields():
    spec = CommandSpec("s", (Field("a", UInt(8)),))
    with pytest.raises(ValueError, match="missing"):
        spec.pack({}, 34)
    with pytest.raises(ValueError, match="unknown"):
        spec.pack({"a": 1, "zz": 2}, 34)
    with pytest.raises(ValueError, match="does not fit"):
        spec.pack({"a": 256}, 34)


def test_duplicate_field_names_rejected():
    with pytest.raises(ValueError):
        CommandSpec("dup", (Field("a", UInt(8)), Field("a", UInt(8))))


def test_response_spec_limits():
    with pytest.raises(ValueError):
        ResponseSpec("big", (Field("a", UInt(64)), Field("b", UInt(1))))
    spec = ResponseSpec("ok", (Field("x", UInt(20)), Field("y", UInt(44))))
    vals = {"x": 0xFFFFF, "y": 123}
    assert spec.unpack(spec.pack(vals)) == vals


# ------------------------------------------- the cached layout vs per call
ADDR_BITS = (32, 34, 40, 48, 64)
_WIDTHS = st.one_of(st.integers(1, 64).map(UInt), st.just(Address()), st.just(Float32()))


def _ref_widths(spec, addr_bits):
    """Widths derived afresh on every call, the rule the cache replaces."""
    out = []
    for f in spec.fields:
        if f.width == Address():
            out.append(addr_bits)
        elif f.width == Float32():
            out.append(32)
        else:
            out.append(f.width)
    return out


def _ref_n_chunks(spec, addr_bits):
    return max(1, -(-sum(_ref_widths(spec, addr_bits)) // 128))


def _ref_pack(spec, values, addr_bits):
    names = {f.name for f in spec.fields}
    missing = names - set(values)
    if missing:
        raise ValueError(f"missing fields for {spec.name!r}: {sorted(missing)}")
    extra = set(values) - names
    if extra:
        raise ValueError(f"unknown fields for {spec.name!r}: {sorted(extra)}")
    blob = pos = 0
    for f, width in zip(spec.fields, _ref_widths(spec, addr_bits)):
        value = values[f.name]
        if f.width == Float32():
            raw = struct.unpack("<I", struct.pack("<f", float(value)))[0]
        else:
            raw = int(value)
            if raw < 0 or raw >= 1 << width:
                raise ValueError(f"value {value!r} does not fit field {f.name!r} ({width} bits)")
        blob |= raw << pos
        pos += width
    mask = (1 << 64) - 1
    return [
        ((blob >> (128 * i)) & mask, (blob >> (128 * i + 64)) & mask)
        for i in range(_ref_n_chunks(spec, addr_bits))
    ]


def _ref_unpack(spec, chunks, addr_bits):
    n = _ref_n_chunks(spec, addr_bits)
    if len(chunks) != n:
        raise ValueError(f"{spec.name!r} expects {n} chunks, got {len(chunks)}")
    blob = sum(((rs2 << 64) | rs1) << (128 * i) for i, (rs1, rs2) in enumerate(chunks))
    out, pos = {}, 0
    for f, width in zip(spec.fields, _ref_widths(spec, addr_bits)):
        raw = (blob >> pos) & ((1 << width) - 1)
        out[f.name] = struct.unpack("<f", struct.pack("<I", raw))[0] if f.width == Float32() else raw
        pos += width
    return out


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@st.composite
def _layout_cases(draw):
    """A spec and a run of requests at mixed address widths against that
    one instance, some missing a field, naming an unknown one or
    overflowing a width."""
    widths = draw(st.lists(_WIDTHS, max_size=8))
    spec = CommandSpec("cmd", tuple(Field(f"f{i}", w) for i, w in enumerate(widths)))
    requests = []
    for _ in range(draw(st.integers(1, 5))):
        addr_bits = draw(st.sampled_from(ADDR_BITS))
        values = {}
        for f, width in zip(spec.fields, _ref_widths(spec, addr_bits)):
            if f.width == Float32():
                values[f.name] = draw(st.floats(width=32, allow_nan=False))
            else:
                values[f.name] = draw(st.integers(0, (1 << width) - 1))
        fault = draw(st.sampled_from(("none", "none", "missing", "unknown", "overflow")))
        ints = [f for f in spec.fields if f.width != Float32()]
        if fault == "missing" and spec.fields:
            del values[draw(st.sampled_from([f.name for f in spec.fields]))]
        elif fault == "unknown":
            values["extra"] = 1
        elif fault == "overflow" and ints:
            f = draw(st.sampled_from(ints))
            width = addr_bits if f.width == Address() else f.width
            values[f.name] = draw(st.sampled_from((1 << width, (1 << width) + 7, -1)))
        requests.append((addr_bits, values))
    return spec, requests


@seed(20251017)
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_layout_cases())
def test_cached_layout_equals_a_per_call_derivation(case):
    spec, requests = case
    for addr_bits, values in requests:
        assert spec.total_bits(addr_bits) == sum(_ref_widths(spec, addr_bits))
        assert spec.n_chunks(addr_bits) == _ref_n_chunks(spec, addr_bits)
        expected = _outcome(_ref_pack, spec, values, addr_bits)
        assert _outcome(spec.pack, values, addr_bits) == expected
        if expected[0] == "ok":
            chunks = expected[1]
            assert spec.unpack(chunks, addr_bits) == _ref_unpack(spec, chunks, addr_bits)
            short = chunks[:-1]
            assert _outcome(spec.unpack, short, addr_bits) == _outcome(
                _ref_unpack, spec, short, addr_bits
            )


def test_layout_is_no_field_of_the_spec():
    spec = CommandSpec("s", (Field("p", Address()), Field("n", UInt(32))))
    twin = CommandSpec("s", (Field("p", Address()), Field("n", UInt(32))))
    spec.pack({"p": 1, "n": 2}, 34)
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and copy.pack({"p": 1, "n": 2}, 34) == spec.pack({"p": 1, "n": 2}, 34)


# -------------------------------------------------------------- adapter/router
def make_fabric(n_cores=2, chunks_spec=None):
    spec = chunks_spec or CommandSpec("go", (Field("x", UInt(32)),))
    router = CommandRouter()
    mmio = MmioFrontend(router)
    sim = Simulator()
    adapters = []
    for core in range(n_cores):
        io = BeethovenIO(spec, EmptyAccelResponse())
        adapter = CoreCommandAdapter(0, core, [io], addr_bits=34)
        router.attach(adapter, latency=2 + core)
        sim.add(adapter)
        adapters.append((adapter, io))
    sim.add(router)
    sim.add(mmio)
    return sim, mmio, adapters, spec


def test_command_reaches_addressed_core():
    sim, mmio, adapters, spec = make_fabric()
    (rs1, rs2), = spec.pack({"x": 77}, 34)
    inst = RoccInstruction(0, 1, funct7=0, rs1=rs1, rs2=rs2, xd=True, rd=1)
    for word in inst.encode_words():
        mmio.cmd_words.push(word)
    sim.run(100, until=lambda: adapters[1][1].req.can_pop())
    assert adapters[1][1].req.peek() == {"x": 77}
    assert not adapters[0][1].req.can_pop()


def test_response_travels_back():
    sim, mmio, adapters, spec = make_fabric()
    (rs1, rs2), = spec.pack({"x": 5}, 34)
    inst = RoccInstruction(0, 0, funct7=0, rs1=rs1, rs2=rs2, xd=True, rd=9)
    for word in inst.encode_words():
        mmio.cmd_words.push(word)
    sim.run(100, until=lambda: adapters[0][1].req.can_pop())
    adapters[0][1].req.pop()
    adapters[0][1].resp.push({})
    sim.run(100, until=lambda: len(mmio.resp_words) >= 4)
    words = [mmio.resp_words.pop() for _ in range(4)]
    resp = RoccResponse.decode_words(words)
    assert resp.rd == 9
    assert (resp.system_id, resp.core_id) == (0, 0)


def test_multichunk_command_reassembled():
    wide = CommandSpec(
        "wide", (Field("a", UInt(64)), Field("b", UInt(64)), Field("c", UInt(64)))
    )
    sim, mmio, adapters, spec = make_fabric(n_cores=1, chunks_spec=wide)
    values = {"a": 1, "b": 2**50, "c": 3}
    chunks = wide.pack(values, 34)
    for i, (rs1, rs2) in enumerate(chunks):
        inst = RoccInstruction(
            0, 0, funct7=0, rs1=rs1, rs2=rs2, xd=(i == len(chunks) - 1), rd=1
        )
        for word in inst.encode_words():
            mmio.cmd_words.push(word)
    sim.run(200, until=lambda: adapters[0][1].req.can_pop())
    assert adapters[0][1].req.pop() == values


def test_router_rejects_unknown_core():
    sim, mmio, adapters, spec = make_fabric(n_cores=1)
    inst = RoccInstruction(0, 5, funct7=0, rs1=0, rs2=0)
    for word in inst.encode_words():
        mmio.cmd_words.push(word)
    with pytest.raises(SimulationError, match="unknown core"):
        sim.run(50)


def test_adapter_rejects_unknown_io_index():
    sim, mmio, adapters, spec = make_fabric(n_cores=1)
    inst = RoccInstruction(0, 0, funct7=3, rs1=0, rs2=0)
    for word in inst.encode_words():
        mmio.cmd_words.push(word)
    with pytest.raises(SimulationError, match="unknown IO"):
        sim.run(50)


def test_router_duplicate_attach_rejected():
    router = CommandRouter()
    io = BeethovenIO(CommandSpec("x", (Field("a", UInt(8)),)), EmptyAccelResponse())
    a = CoreCommandAdapter(0, 0, [io], 34)
    router.attach(a)
    with pytest.raises(ValueError):
        router.attach(a)
