"""AXI4 transaction-level protocol types.

We model the five AXI4 channels at beat granularity.  Addresses are byte
addresses, bursts are INCR bursts of ``length`` beats of ``beat_bytes`` each.
Data is carried as ``bytes`` so simulations stay functionally exact: a memcpy
through the model really copies the bytes.  A beat's payload is a named tuple
built once by the endpoint that originates it; R and B channel items carry
the routed ID beside it as ``(axi_id, payload)``, so a NoC hop re-tags the ID
and forwards the same payload.

AXI rules the model enforces (via :mod:`repro.axi.monitor`):

* read data for transactions sharing an ARID is returned in issue order;
* beats within a transaction are returned in order, the final beat has
  ``last`` set;
* write data follows address order (AXI4 has no write interleave);
* one B response per write transaction, per-ID in issue order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

from repro.sim import ChannelQueue

_txn_counter = itertools.count()


def _next_txn_tag() -> int:
    return next(_txn_counter)


@dataclass(frozen=True)
class AxiParams:
    """Bus parameterisation; mirrors what a Beethoven platform declares."""

    beat_bytes: int = 64
    id_bits: int = 6
    addr_bits: int = 34
    max_burst_beats: int = 64

    @property
    def n_ids(self) -> int:
        return 1 << self.id_bits

    def check_burst(self, addr: int, length: int) -> None:
        if length < 1 or length > self.max_burst_beats:
            raise ValueError(f"illegal burst length {length}")
        if addr % self.beat_bytes:
            raise ValueError(f"unaligned burst address {addr:#x}")
        # AXI bursts must not cross a 4 KB boundary.
        if (addr // 4096) != ((addr + length * self.beat_bytes - 1) // 4096):
            raise ValueError(
                f"burst at {addr:#x} x{length} beats crosses a 4KB boundary"
            )


@dataclass(frozen=True, slots=True)
class ARReq:
    """Read address channel payload (one burst)."""

    axi_id: int
    addr: int
    length: int  # beats
    tag: int = field(default_factory=_next_txn_tag)

    def bytes_total(self, beat_bytes: int) -> int:
        return self.length * beat_bytes


class RBeat(NamedTuple):
    """Read data channel payload (one beat), built once by the memory
    controller.

    An R channel item is ``(axi_id, RBeat)``: the ID is per-hop routing
    state, so a NoC hop re-tags it and forwards the same payload.  ``err``
    models the SLVERR/ECC-poison signalling real links carry: a corrupted
    beat is delivered with ``err=True`` so downstream consumers can detect
    (never silently absorb) the corruption; a fault hook that corrupts a
    beat builds a new payload.
    """

    data: bytes
    last: bool
    tag: int = -1
    err: bool = False


@dataclass(frozen=True, slots=True)
class AWReq:
    """Write address channel payload (one burst)."""

    axi_id: int
    addr: int
    length: int  # beats
    tag: int = field(default_factory=_next_txn_tag)


class WBeat(NamedTuple):
    """Write data channel payload (one beat), built once by the master that
    writes it; strb masks written bytes.  A W channel item is the bare
    payload: AXI4 write data carries no ID and follows address order."""

    data: bytes
    last: bool
    strb: Optional[bytes] = None  # None means all bytes valid


class BResp(NamedTuple):
    """Write response channel payload, built once by the memory controller.
    A B channel item is ``(axi_id, BResp)``, re-tagged per hop like R."""

    okay: bool = True
    tag: int = -1


class AxiPort:
    """A bundle of the five AXI channels, named from the master's view.

    The component that *owns* the port drives ``ar``/``aw``/``w`` and consumes
    ``r``/``b``; a slave does the opposite.  Channel capacities model the
    skid/register slices real interconnects insert.
    """

    def __init__(self, params: AxiParams, name: str = "axi", depth: int = 4) -> None:
        self.params = params
        self.name = name
        self.ar: ChannelQueue[ARReq] = ChannelQueue(depth, f"{name}.ar")
        self.r: ChannelQueue[Tuple[int, RBeat]] = ChannelQueue(depth, f"{name}.r")
        self.aw: ChannelQueue[AWReq] = ChannelQueue(depth, f"{name}.aw")
        self.w: ChannelQueue[WBeat] = ChannelQueue(depth, f"{name}.w")
        self.b: ChannelQueue[Tuple[int, BResp]] = ChannelQueue(depth, f"{name}.b")

    def channels(self):
        return [self.ar, self.r, self.aw, self.w, self.b]
