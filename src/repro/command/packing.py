"""Custom command/response formats and their RoCC packing.

Developers declare command payloads as named, typed fields (the Python
equivalent of the paper's ``new AccelCommand { val addend = UInt(32.W) ... }``
in Figure 2).  Beethoven transparently maps such commands onto the RoCC
instruction format: the fields are concatenated LSB-first and split over as
many 128-bit RoCC payloads as needed; the generated hardware unpacker
reassembles them.  Because ``Address`` fields resolve to the platform's
address width, the same declaration produces different bit layouts on
different platforms — which is exactly why Beethoven generates the host-side
binding code instead of letting the user hand-pack bits (Section II-B,
Command Abstractions).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from repro.command.rocc import PAYLOAD_BITS

ADDRESS_WIDTH = "address"  # sentinel: resolved to the platform address width


@dataclass(frozen=True)
class Field:
    """One named field of a custom command or response."""

    name: str
    width: object  # int bit width, ADDRESS_WIDTH, or "float32"

    def resolved_width(self, addr_bits: int) -> int:
        if self.width == ADDRESS_WIDTH:
            return addr_bits
        if self.width == "float32":
            return 32
        if isinstance(self.width, int) and self.width > 0:
            return self.width
        raise ValueError(f"bad field width {self.width!r} for {self.name!r}")

    @property
    def is_float(self) -> bool:
        return self.width == "float32"

    @property
    def is_address(self) -> bool:
        return self.width == ADDRESS_WIDTH


def UInt(width: int) -> object:
    """Width helper mirroring Chisel's ``UInt(32.W)`` for readability."""
    return width


def Address() -> object:
    """Platform-address-width field (paper Figure 2: ``Address()``)."""
    return ADDRESS_WIDTH


def Float32() -> object:
    return "float32"


class _Layout(NamedTuple):
    """A command's bit layout at one address width, derived once."""

    widths: Tuple[int, ...]
    offsets: Tuple[int, ...]
    names: FrozenSet[str]
    total_bits: int
    n_chunks: int


def _layout_table(fields: Tuple[Field, ...]) -> Callable[[int], _Layout]:
    """``addr_bits -> layout`` of ``fields``, each width derived once."""
    layouts: Dict[int, _Layout] = {}

    def layout(addr_bits: int) -> _Layout:
        found = layouts.get(addr_bits)
        if found is None:
            widths = tuple(f.resolved_width(addr_bits) for f in fields)
            offsets = []
            pos = 0
            for width in widths:
                offsets.append(pos)
                pos += width
            found = layouts[addr_bits] = _Layout(
                widths,
                tuple(offsets),
                frozenset(f.name for f in fields),
                pos,
                max(1, -(-pos // PAYLOAD_BITS)),
            )
        return found

    return layout


@dataclass(frozen=True)
class CommandSpec:
    """A named custom command format (an ``AccelCommand``).

    The bit layout at an address width is fixed once the platform is known:
    ``layout(addr_bits)`` derives it on first use per width, and
    :meth:`pack`, :meth:`unpack`, :meth:`n_chunks` and :meth:`total_bits`
    read it from then on.
    """

    name: str
    fields: Tuple[Field, ...] = ()

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in command {self.name!r}")
        # Not a field, so equality, hashing and ``repr`` ignore it; a
        # closure, so snapshot capture treats it as structure, not state.
        object.__setattr__(self, "layout", _layout_table(self.fields))

    def __reduce__(self):
        return type(self), (self.name, self.fields)

    def total_bits(self, addr_bits: int) -> int:
        return self.layout(addr_bits).total_bits

    def n_chunks(self, addr_bits: int) -> int:
        return self.layout(addr_bits).n_chunks

    # -- packing ------------------------------------------------------------
    def pack(self, values: Dict[str, object], addr_bits: int) -> List[Tuple[int, int]]:
        """Pack field values into (rs1, rs2) payload pairs, LSB-first."""
        layout = self.layout(addr_bits)
        if values.keys() != layout.names:
            missing = layout.names - set(values)
            if missing:
                raise ValueError(f"missing fields for {self.name!r}: {sorted(missing)}")
            extra = set(values) - layout.names
            raise ValueError(f"unknown fields for {self.name!r}: {sorted(extra)}")
        blob = 0
        for f, width, pos in zip(self.fields, layout.widths, layout.offsets):
            blob |= _encode_value(f, values[f.name], width) << pos
        chunks = []
        mask64 = (1 << 64) - 1
        for _ in range(layout.n_chunks):
            chunks.append((blob & mask64, (blob >> 64) & mask64))
            blob >>= PAYLOAD_BITS
        return chunks

    def unpack(self, chunks: Sequence[Tuple[int, int]], addr_bits: int) -> Dict[str, object]:
        """Reassemble field values from (rs1, rs2) payload pairs."""
        layout = self.layout(addr_bits)
        if len(chunks) != layout.n_chunks:
            raise ValueError(
                f"{self.name!r} expects {layout.n_chunks} chunks, got {len(chunks)}"
            )
        blob = 0
        for i, (rs1, rs2) in enumerate(chunks):
            blob |= ((rs2 << 64) | rs1) << (i * PAYLOAD_BITS)
        return {
            f.name: _decode_value(f, (blob >> pos) & ((1 << width) - 1))
            for f, width, pos in zip(self.fields, layout.widths, layout.offsets)
        }


@dataclass(frozen=True)
class ResponseSpec:
    """A custom response format; must fit one 64-bit RoCC response."""

    name: str
    fields: Tuple[Field, ...] = ()

    def __post_init__(self) -> None:
        if self.total_bits(64) > 64:
            raise ValueError(
                f"response {self.name!r} exceeds the 64-bit RoCC response payload"
            )

    def total_bits(self, addr_bits: int) -> int:
        return sum(f.resolved_width(addr_bits) for f in self.fields)

    def pack(self, values: Dict[str, object]) -> int:
        blob = 0
        pos = 0
        for f in self.fields:
            width = f.resolved_width(64)
            blob |= _encode_value(f, values[f.name], width) << pos
            pos += width
        return blob

    def unpack(self, data: int) -> Dict[str, object]:
        out: Dict[str, object] = {}
        pos = 0
        for f in self.fields:
            width = f.resolved_width(64)
            out[f.name] = _decode_value(f, (data >> pos) & ((1 << width) - 1))
            pos += width
        return out


def EmptyAccelResponse() -> ResponseSpec:
    """A response with no payload — just completion (paper Figure 2)."""
    return ResponseSpec("empty")


def _encode_value(f: Field, value: object, width: int) -> int:
    if f.is_float:
        return struct.unpack("<I", struct.pack("<f", float(value)))[0]
    ivalue = int(value)
    if ivalue < 0 or ivalue >= (1 << width):
        raise ValueError(
            f"value {value!r} does not fit field {f.name!r} ({width} bits)"
        )
    return ivalue


def _decode_value(f: Field, raw: int) -> object:
    if f.is_float:
        return struct.unpack("<f", struct.pack("<I", raw))[0]
    return raw
