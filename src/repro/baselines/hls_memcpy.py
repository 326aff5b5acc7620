"""Vitis-HLS-style memcpy baseline (paper Section III-A, Figure 5a).

Models the behaviour the paper measured from the compiled HLS kernel:

* every transaction uses the *same* AXI ID (HLS m_axi ports do not split
  traffic over IDs), so the memory controller must process them in order;
* although the source was annotated for 64-beat bursts, the compiled output
  only issued 16-beat bursts — we default to that observed burst length;
* read requests are emitted back-to-back up to the port's outstanding limit,
  and writes are produced by the dataflow pipeline once a full burst of data
  has passed through its (modest) stream FIFO.

The combination — short bursts, single-ID in-order service, and a shallow
dataflow FIFO — is what lets reads monopolise the controller while writes
queue up behind them under load.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.axi.monitor import MonitoredAxiPort
from repro.axi.types import ARReq, AWReq, WBeat
from repro.memory.types import split_into_bursts
from repro.sim import Component


class HlsMemcpyMaster(Component):
    """Single-ID, short-burst, FIFO-coupled copier."""

    _state = ("started", "done", "_read_segments", "_write_segments", "_fifo",
              "_fifo_bytes", "_reads_outstanding", "_reserved_bytes", "_aw_open",
              "_writes_outstanding")

    def __init__(
        self,
        mport: MonitoredAxiPort,
        burst_beats: int = 16,
        max_outstanding_reads: int = 16,
        fifo_bytes: int = 4096,
        name: str = "hls_memcpy",
    ) -> None:
        super().__init__(name)
        self.mport = mport
        self.port = mport.port
        self.burst_beats = burst_beats
        self.max_outstanding_reads = max_outstanding_reads
        self.fifo_bytes = fifo_bytes
        self._read_segments: Deque = deque()
        self._write_segments: Deque = deque()
        self._fifo: Deque[bytes] = deque()
        self._fifo_bytes = 0
        self._reads_outstanding = 0
        self._reserved_bytes = 0
        self._aw_open: Optional[int] = None
        self._writes_outstanding = 0
        self.done = False
        self.started = False

    def start(self, src: int, dst: int, length: int) -> None:
        beat = self.port.params.beat_bytes
        self._read_segments = deque(split_into_bursts(src, length, beat, self.burst_beats))
        self._write_segments = deque(split_into_bursts(dst, length, beat, self.burst_beats))
        self.done = False
        self.started = True

    def idle(self) -> bool:
        return self.done or not self.started

    def tick(self, cycle: int) -> None:
        if not self.started or self.done:
            return
        beat = self.port.params.beat_bytes
        # Burst-mode read prefetch: issue ARs while credit remains.  The FIFO
        # reservation bounds read-ahead to the stream depth HLS synthesised.
        if (
            self._read_segments
            and self._reads_outstanding < self.max_outstanding_reads
            and self.port.ar.can_push()
        ):
            addr, beats, _payload = self._read_segments[0]
            if self._reserved_bytes + beats * beat <= self.fifo_bytes:
                self._read_segments.popleft()
                self.mport.push_ar(cycle, ARReq(axi_id=0, addr=addr, length=beats))
                self._reads_outstanding += 1
                self._reserved_bytes += beats * beat
        if self.port.r.can_pop():
            rbeat = self.port.r.pop()[1]
            self._fifo.append(rbeat.data)
            self._fifo_bytes += len(rbeat.data)
            if rbeat.last:
                self._reads_outstanding -= 1
        # The write side of the dataflow pipeline: open a burst once its data
        # has fully arrived in the stream FIFO, also on AXI ID 0.
        if self._aw_open is None and self._write_segments and self.port.aw.can_push():
            addr, beats, _payload = self._write_segments[0]
            if self._fifo_bytes >= beats * beat:
                self._write_segments.popleft()
                self.mport.push_aw(cycle, AWReq(axi_id=0, addr=addr, length=beats))
                self._aw_open = beats
        if self._aw_open and self.port.w.can_push() and self._fifo:
            chunk = self._fifo.popleft()
            self._fifo_bytes -= len(chunk)
            self._reserved_bytes -= len(chunk)
            last = self._aw_open == 1
            self.mport.push_w(cycle, WBeat(chunk, last))
            self._aw_open -= 1
            if last:
                self._aw_open = None
                self._writes_outstanding += 1
        if self.port.b.can_pop():
            self.port.b.pop()
            self._writes_outstanding -= 1
            if (
                not self._read_segments
                and not self._write_segments
                and self._writes_outstanding == 0
                and self._aw_open is None
                and not self._fifo
            ):
                self.done = True
