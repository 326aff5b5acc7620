"""Hand-written-HDL memcpy baseline (paper Section III-A, Figure 5c).

Models the paper's ~470-line pure-Chisel implementation: read and write
transactions overlap, but the design uses a single AXI ID per direction and
keeps only one transaction per ID in flight at a time, issuing 64-beat
bursts.  It connects *directly* to the memory controller port — no generated
interconnect — which is exactly why it edges out Beethoven by a few percent
on large copies (no framework plumbing) while remaining a one-off,
non-portable design.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.axi.monitor import MonitoredAxiPort
from repro.axi.types import ARReq, AWReq, WBeat
from repro.memory.types import split_into_bursts
from repro.sim import Component


class HdlMemcpyMaster(Component):
    """Single-outstanding-per-direction streaming copier."""

    _snapshot_exclude = ("port",)  # wiring, rebuilt by elaboration

    def __init__(
        self,
        mport: MonitoredAxiPort,
        burst_beats: int = 64,
        fifo_bytes: int = 16 * 4096,
        name: str = "hdl_memcpy",
    ) -> None:
        super().__init__(name)
        self.mport = mport
        self.port = mport.port
        self.burst_beats = burst_beats
        self.fifo_bytes = fifo_bytes
        self._read_segments: Deque = deque()
        self._write_segments: Deque = deque()
        self._fifo: Deque[bytes] = deque()  # beat-sized chunks read but unwritten
        self._fifo_bytes = 0
        self._read_open = False
        self._aw_open: Optional[int] = None  # beats remaining in open write burst
        self._w_payload: Deque[bytes] = deque()
        self._writes_outstanding = 0
        self._write_inflight = False
        self.done = False
        self.started = False
        self._src = self._dst = self._len = 0

    def start(self, src: int, dst: int, length: int) -> None:
        beat = self.port.params.beat_bytes
        self._read_segments = deque(
            split_into_bursts(src, length, beat, self.burst_beats)
        )
        self._write_segments = deque(
            split_into_bursts(dst, length, beat, self.burst_beats)
        )
        self.done = False
        self.started = True

    def idle(self) -> bool:
        return self.done or not self.started

    def tick(self, cycle: int) -> None:
        if not self.started or self.done:
            return
        beat = self.port.params.beat_bytes
        # Issue the next read burst when none is in flight and the FIFO has
        # room for a whole burst (single outstanding transaction per ID).
        if (
            not self._read_open
            and self._read_segments
            and self.port.ar.can_push()
            and self._fifo_bytes + self.burst_beats * beat <= self.fifo_bytes
        ):
            addr, beats, _payload = self._read_segments.popleft()
            self.mport.push_ar(cycle, ARReq(axi_id=0, addr=addr, length=beats))
            self._read_open = True
        if self.port.r.can_pop():
            rbeat = self.port.r.pop()
            self._fifo.append(rbeat.data)
            self._fifo_bytes += len(rbeat.data)
            if rbeat.last:
                self._read_open = False
        # Open a write burst as soon as a full burst of data is banked.
        if (
            not self._write_inflight
            and self._write_segments
            and self.port.aw.can_push()
        ):
            addr, beats, _payload = self._write_segments[0]
            if self._fifo_bytes >= beats * beat:
                self._write_segments.popleft()
                self.mport.push_aw(cycle, AWReq(axi_id=0, addr=addr, length=beats))
                self._aw_open = beats
                self._write_inflight = True
        if self._aw_open and self.port.w.can_push() and self._fifo:
            chunk = self._fifo.popleft()
            self._fifo_bytes -= len(chunk)
            last = self._aw_open == 1
            self.mport.push_w(cycle, WBeat(chunk, last=last))
            self._aw_open -= 1
            if last:
                self._aw_open = None
                self._writes_outstanding += 1
        if self.port.b.can_pop():
            self.port.b.pop()
            self._writes_outstanding -= 1
            self._write_inflight = False
            if (
                not self._write_segments
                and not self._read_segments
                and self._writes_outstanding == 0
                and not self._fifo
            ):
                self.done = True
