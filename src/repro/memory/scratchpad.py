"""Scratchpads and manually-managed on-chip memory.

``Memory`` is the appendix's raw SRAM-like utility: fixed latency, a given
number of ports, no framework management.  ``Scratchpad`` wraps a ``Memory``
with the Beethoven-managed features: a Reader-based initialisation routine
that fills it from external memory, and the bookkeeping (width/depth) that the
platform memcell mapper uses to choose BRAM/URAM/SRAM-macro implementations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.axi.types import AxiParams
from repro.memory.reader import Reader, ReaderTuning
from repro.memory.types import ReadRequest
from repro.sim import NEVER, ChannelQueue, Component


class Memory:
    """A multi-port, fixed-latency on-chip memory (appendix `Memory`).

    The owning core drives ports during its ``tick`` via :meth:`read` /
    :meth:`write`; read data appears ``latency`` calls to :meth:`clock` later
    and is fetched with :meth:`rdata`.  One access per port per cycle.

    ``on_activity`` (optional) is invoked on every :meth:`read`/:meth:`write`.
    The component that clocks this memory sets it to its own
    :meth:`~repro.sim.Component.request_wake` so that a *different* component
    accessing the memory directly (non-channel coupling, invisible to the
    compiled scheduler's wake sets) still re-wakes the clocking component.

    Storage is first-touch: the row array is allocated by :meth:`cells` on
    the first read, write or initialisation, so a design that is only
    floorplanned never pays for its scratchpads.  ``_cells`` stays an
    attribute (``None`` until then) so that snapshots capture and restore
    "untouched" as state.
    """

    on_activity = None

    def __init__(
        self,
        latency: int,
        data_width: int,
        n_rows: int,
        n_read_ports: int = 1,
        n_write_ports: int = 1,
        name: str = "mem",
    ) -> None:
        if latency < 1:
            raise ValueError("memory latency must be >= 1")
        self.name = name
        self.latency = latency
        self.data_width = data_width
        self.n_rows = n_rows
        self.n_read_ports = n_read_ports
        self.n_write_ports = n_write_ports
        self._cells: Optional[List[int]] = None
        self._pipes: List[Deque[Optional[int]]] = [
            deque([None] * latency) for _ in range(n_read_ports)
        ]
        self._out: List[Optional[int]] = [None] * n_read_ports
        self._read_used = [False] * n_read_ports
        self._write_used = [False] * n_write_ports
        self._mask = (1 << data_width) - 1

    @property
    def bits(self) -> int:
        return self.data_width * self.n_rows

    def cells(self) -> List[int]:
        """The row array (zero-filled on first touch); sole owner of allocation."""
        cells = self._cells
        if cells is None:
            cells = self._cells = [0] * self.n_rows
        return cells

    def read(self, port: int, row: int) -> None:
        if self._read_used[port]:
            raise RuntimeError(f"{self.name}: read port {port} used twice in a cycle")
        if not 0 <= row < self.n_rows:
            raise IndexError(f"{self.name}: row {row} out of range")
        self._read_used[port] = True
        self._pipes[port][-1] = self.cells()[row]
        if self.on_activity is not None:
            self.on_activity()

    def write(self, port: int, row: int, value: int) -> None:
        if self._write_used[port]:
            raise RuntimeError(f"{self.name}: write port {port} used twice in a cycle")
        if not 0 <= row < self.n_rows:
            raise IndexError(f"{self.name}: row {row} out of range")
        self._write_used[port] = True
        self.cells()[row] = value & self._mask
        if self.on_activity is not None:
            self.on_activity()

    def rdata(self, port: int) -> Optional[int]:
        """Data for the read issued exactly ``latency`` clocks ago."""
        return self._out[port]

    def clock(self) -> None:
        """Advance the read pipelines; call once per cycle (cores' ticks)."""
        for i, pipe in enumerate(self._pipes):
            self._out[i] = pipe.popleft()
            pipe.append(None)
        self._read_used = [False] * self.n_read_ports
        self._write_used = [False] * self.n_write_ports


@dataclass(frozen=True)
class SpReq:
    """One scratchpad port operation."""

    row: int
    write: bool = False
    wdata: int = 0


class ScratchpadPort:
    """Channel pair for one scratchpad port."""

    def __init__(self, name: str, depth: int = 2) -> None:
        self.req: ChannelQueue[SpReq] = ChannelQueue(depth, f"{name}.req")
        self.resp: ChannelQueue[int] = ChannelQueue(depth, f"{name}.resp")


class Scratchpad(Component):
    """Beethoven-managed on-chip memory with Reader-based initialisation.

    ``init`` takes a (base address, length) request; the internal Reader
    streams external memory and the scratchpad packs it into rows of
    ``data_width_bits`` (little-endian), signalling ``init_done`` when full.
    """

    _snapshot_exclude = ("ports", "init", "init_done", "reader")  # wiring, rebuilt by elaboration

    def __init__(
        self,
        name: str,
        data_width_bits: int,
        n_datas: int,
        axi_params: AxiParams,
        n_ports: int = 1,
        latency: int = 2,
        reader_tuning: Optional[ReaderTuning] = None,
        with_init: bool = True,
    ) -> None:
        super().__init__(f"scratchpad.{name}")
        if data_width_bits % 8:
            raise ValueError("scratchpad width must be a whole number of bytes")
        self.data_width_bits = data_width_bits
        self.n_datas = n_datas
        self.latency = latency
        self.mem = Memory(
            latency, data_width_bits, n_datas, n_read_ports=n_ports, n_write_ports=1,
            name=f"{name}.mem",
        )
        # Direct (non-channel) accesses to the backing memory must re-wake
        # this component so the read pipeline keeps getting clocked.
        self.mem.on_activity = self.request_wake
        self.ports = [ScratchpadPort(f"{name}.p{i}") for i in range(n_ports)]
        self.with_init = with_init
        self.reader: Optional[Reader] = None
        if with_init:
            word_bytes = data_width_bits // 8
            data_bytes = min(max(word_bytes, 1), axi_params.beat_bytes)
            self.reader = Reader(
                f"{name}.init", data_bytes, axi_params, reader_tuning
            )
        self.init: ChannelQueue[ReadRequest] = ChannelQueue(2, f"{name}.init")
        self.init_done: ChannelQueue[bool] = ChannelQueue(2, f"{name}.initdone")
        self._init_active = False
        self._init_row = 0
        self._init_bytes_left = 0
        self._init_residue = bytearray()
        # Matured read data awaiting space in a port's response queue.
        self._resp_overflow: List[Deque[int]] = [deque() for _ in range(n_ports)]
        self._reads_in_flight = [0] * n_ports
        # Statistics (plain ints; bound lazily into the metric registry).
        self.reads_served = 0
        self.writes_served = 0
        self.init_words = 0
        self.inits_completed = 0

    def register_metrics(self, scope) -> None:
        scope.bind("reads_served", lambda: self.reads_served)
        scope.bind("writes_served", lambda: self.writes_served)
        scope.bind("init_words", lambda: self.init_words)
        scope.bind("inits_completed", lambda: self.inits_completed)
        scope.bind("rows", lambda: self.n_datas)

    def channels(self):
        chans = [self.init, self.init_done]
        for port in self.ports:
            chans += [port.req, port.resp]
        if self.reader is not None:
            chans += list(self.reader.channels())
        return chans

    def components(self):
        """Sub-components the elaborator must register (the init Reader)."""
        return [self.reader] if self.reader is not None else []

    def tick(self, cycle: int) -> None:
        self._run_init()
        self._serve_ports()
        self.mem.clock()

    def next_event(self, cycle: int) -> float:
        """The scratchpad must tick every cycle while its read pipeline is
        non-empty or responses are queued (``mem.clock`` advances real
        state); otherwise it is purely channel-reactive."""
        if (
            any(self._reads_in_flight)
            or any(self._resp_overflow)
            or (self._init_active and self._init_bytes_left <= 0)
        ):
            return cycle
        return NEVER

    def _run_init(self) -> None:
        if self.reader is None:
            return
        if not self._init_active and self.init.can_pop() and self.reader.request.can_push():
            req = self.init.pop()
            self.reader.request.push(req)
            self._init_active = True
            self._init_row = 0
            self._init_bytes_left = req.len_bytes
            self._init_residue.clear()
        if self._init_active and self.reader.data.can_pop():
            chunk = self.reader.data.pop()
            self._init_residue.extend(chunk)
            self._init_bytes_left -= len(chunk)
            word_bytes = self.data_width_bits // 8
            cells = self.mem.cells()
            while len(self._init_residue) >= word_bytes and self._init_row < self.n_datas:
                word = int.from_bytes(self._init_residue[:word_bytes], "little")
                del self._init_residue[:word_bytes]
                cells[self._init_row] = word
                self._init_row += 1
                self.init_words += 1
            if self._init_bytes_left <= 0 and self.init_done.can_push():
                self.init_done.push(True)
                self._init_active = False
                self.inits_completed += 1

    def _serve_ports(self) -> None:
        for i, port in enumerate(self.ports):
            overflow = self._resp_overflow[i]
            rdata = self.mem.rdata(i)
            if rdata is not None:
                overflow.append(rdata)
                self._reads_in_flight[i] -= 1
            while overflow and port.resp.can_push():
                port.resp.push(overflow.popleft())
            if port.req.can_pop():
                op = port.req.peek()
                if op.write:
                    port.req.pop()
                    self.mem.write(0, op.row, op.wdata)
                    self.writes_served += 1
                else:
                    # Issue a read only when its response is guaranteed a
                    # buffer slot at maturity (conservative credit rule).
                    committed = len(overflow) + self._reads_in_flight[i] + len(port.resp)
                    if committed < port.resp.capacity:
                        port.req.pop()
                        self.mem.read(i, op.row)
                        self._reads_in_flight[i] += 1
                        self.reads_served += 1
