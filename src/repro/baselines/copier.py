"""The memcpy baselines of paper Section III-A (Figures 4 and 5).

The paper compares Beethoven's memcpy with a Vitis HLS kernel and a ~470-line
hand-written Chisel copier.  Both are the same streaming copier: read bursts
fill a FIFO, and a write burst opens once its whole burst of data is banked,
all on AXI ID 0 and attached *directly* to the memory controller port — no
generated interconnect.  They differ in four numbers, the fields of
``CopierPreset``:

* ``PURE_HDL`` (Fig. 5c) keeps one 64-beat read and one 64-beat write in
  flight (a write counts from its AW to its B).  The paper's copier, with no
  framework plumbing, edged out Beethoven by a few percent on large copies;
  this one trails it there, since one burst per direction leaves the
  inter-burst bubbles exposed (EXPERIMENTS.md, the Fig. 4 deviation).
* ``HLS`` (Fig. 5a) issues the 16-beat bursts the paper observed the compiler
  emit (the source asked for 64), prefetches up to 16 reads and never waits
  for a B before the next write.  A 4 KiB stream FIFO bounds its read-ahead.
  Short bursts served in order on one ID let reads monopolise the
  controller while writes queue up behind them under load.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, NamedTuple, Optional

from repro.axi.monitor import MonitoredAxiPort
from repro.axi.types import ARReq, AWReq, WBeat
from repro.memory.types import split_into_bursts
from repro.sim import Component


class CopierPreset(NamedTuple):
    """The four numbers that set one baseline apart, and its label."""

    burst_beats: int
    max_reads: int
    max_writes: Optional[int]  # AW to B; None is unbounded
    fifo_bytes: int
    name: str


PURE_HDL = CopierPreset(64, 1, 1, 64 * 1024, "pure-hdl")
HLS = CopierPreset(16, 16, None, 4096, "hls")


class BaselineCopier(Component):
    """Single-ID streaming copier: bounded reads and writes in flight.

    A read burst issues only when the FIFO can take its data: an AR reserves
    its burst's beats, and each W beat that drains the FIFO releases one.
    """

    _state = ("started", "done", "_read_segments", "_write_segments", "_fifo",
              "_reserved", "_reads_in_flight", "_aw_open", "_writes_in_flight")

    def __init__(
        self,
        mport: MonitoredAxiPort,
        burst_beats: int,
        max_reads: int,
        max_writes: Optional[int],
        fifo_bytes: int,
        name: str = "baseline_copier",
    ) -> None:
        super().__init__(name)
        self.mport = mport
        self.port = mport.port
        self.burst_beats = burst_beats
        self.max_reads = max_reads
        self.max_writes = max_writes
        self.fifo_bytes = fifo_bytes
        self._read_segments: Deque = deque()
        self._write_segments: Deque = deque()
        self._fifo: Deque[bytes] = deque()  # one entry per beat read but unwritten
        self._reserved = 0  # beats of FIFO held by reads in flight and by _fifo
        self._reads_in_flight = 0
        self._aw_open: Optional[int] = None  # beats left in the open write burst
        self._writes_in_flight = 0
        self.done = False
        self.started = False

    def start(self, src: int, dst: int, length: int) -> None:
        beat = self.port.params.beat_bytes
        self._read_segments = deque(split_into_bursts(src, length, beat, self.burst_beats))
        self._write_segments = deque(split_into_bursts(dst, length, beat, self.burst_beats))
        self.done = False
        self.started = True

    def tick(self, cycle: int) -> None:
        if not self.started or self.done:
            return
        port = self.port
        beat = port.params.beat_bytes
        if (
            self._read_segments
            and self._reads_in_flight < self.max_reads
            and port.ar.can_push()
        ):
            addr, beats, _chunk = self._read_segments[0]
            if (self._reserved + beats) * beat <= self.fifo_bytes:
                self._read_segments.popleft()
                self.mport.push_ar(cycle, ARReq(axi_id=0, addr=addr, length=beats))
                self._reads_in_flight += 1
                self._reserved += beats
        if port.r.can_pop():
            rbeat = port.r.pop()[1]
            self._fifo.append(rbeat.data)
            if rbeat.last:
                self._reads_in_flight -= 1
        if (
            self._aw_open is None
            and self._write_segments
            and (self.max_writes is None or self._writes_in_flight < self.max_writes)
            and port.aw.can_push()
        ):
            addr, beats, _chunk = self._write_segments[0]
            if len(self._fifo) >= beats:
                self._write_segments.popleft()
                self.mport.push_aw(cycle, AWReq(axi_id=0, addr=addr, length=beats))
                self._aw_open = beats
                self._writes_in_flight += 1
        if self._aw_open and port.w.can_push() and self._fifo:
            self._reserved -= 1
            last = self._aw_open == 1
            self.mport.push_w(cycle, WBeat(self._fifo.popleft(), last))
            self._aw_open = None if last else self._aw_open - 1
        if port.b.can_pop():
            port.b.pop()
            self._writes_in_flight -= 1
            # Every write burst opened on banked data, so the last B means
            # every byte was read and written.
            self.done = not self._write_segments and self._writes_in_flight == 0
