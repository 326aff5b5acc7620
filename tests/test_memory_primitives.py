"""Unit and integration tests for Reader, Writer, Scratchpad and Memory."""

import pytest

from repro.axi import AxiParams
from repro.memory import (
    Memory,
    Reader,
    ReaderTuning,
    ReadRequest,
    Scratchpad,
    SpReq,
    split_into_bursts,
    Writer,
    WriterTuning,
    WriteRequest,
)
from repro.sim import Component, Simulator
from repro.testing import build_memory_testbench

PARAMS = AxiParams()


class ReaderDriver(Component):
    """Pushes one read request and collects the data stream."""

    def __init__(self, reader, addr, length):
        super().__init__("rdrv")
        self.reader = reader
        self.req = ReadRequest(addr, length)
        self.sent = False
        self.received = bytearray()
        self.expect = length

    def tick(self, cycle):
        if not self.sent and self.reader.request.can_push():
            self.reader.request.push(self.req)
            self.sent = True
        while self.reader.data.can_pop():
            self.received.extend(self.reader.data.pop())

    def done(self):
        return len(self.received) >= self.expect


class WriterDriver(Component):
    """Feeds a writer with data chunks and waits for completion."""

    def __init__(self, writer, addr, payload):
        super().__init__("wdrv")
        self.writer = writer
        self.req = WriteRequest(addr, len(payload))
        self.payload = payload
        self.sent_req = False
        self.offset = 0
        self.finished = False

    def tick(self, cycle):
        if not self.sent_req and self.writer.request.can_push():
            self.writer.request.push(self.req)
            self.sent_req = True
        if self.sent_req and self.offset < len(self.payload) and self.writer.data.can_push():
            chunk = self.payload[self.offset : self.offset + self.writer.data_bytes]
            self.writer.data.push(chunk)
            self.offset += len(chunk)
        if self.writer.done.can_pop():
            self.writer.done.pop()
            self.finished = True

    def done(self):
        return self.finished


# --------------------------------------------------------------------- bursts
def test_split_simple():
    assert split_into_bursts(0, 4096, 64, 64) == [(0, 64, 4096)]


def test_split_respects_max_beats():
    segs = split_into_bursts(0, 4096, 64, 16)
    assert len(segs) == 4
    assert all(beats == 16 for _, beats, _ in segs)


def test_split_respects_4k_boundary():
    segs = split_into_bursts(4096 - 128, 256, 64, 64)
    assert segs == [(4096 - 128, 2, 128), (4096, 2, 128)]


def test_split_partial_tail():
    segs = split_into_bursts(0, 100, 64, 64)
    assert segs == [(0, 2, 100)]


def test_split_rejects_misaligned():
    with pytest.raises(ValueError):
        split_into_bursts(3, 64, 64, 64)


def test_split_rejects_empty():
    with pytest.raises(ValueError):
        split_into_bursts(0, 0, 64, 64)


# --------------------------------------------------------------------- reader
@pytest.mark.parametrize("data_bytes", [4, 16, 64])
def test_reader_streams_exact_data(data_bytes):
    reader = Reader("vec_in", data_bytes, PARAMS)
    tb = build_memory_testbench([reader.port])
    pattern = bytes((i * 7 + 3) % 256 for i in range(8192))
    tb.store.write(0x10000, pattern)
    drv = ReaderDriver(reader, 0x10000, 8192)
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(40000, until=drv.done)
    assert bytes(drv.received) == pattern


def test_reader_partial_tail_length():
    reader = Reader("vec_in", 4, PARAMS)
    tb = build_memory_testbench([reader.port])
    pattern = bytes(range(100))
    tb.store.write(0, pattern)
    drv = ReaderDriver(reader, 0, 100)
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(20000, until=drv.done)
    assert bytes(drv.received) == pattern


def test_reader_no_tlp_uses_single_id():
    reader = Reader("r", 64, PARAMS, ReaderTuning(n_axi_ids=1, max_in_flight=4))
    tb = build_memory_testbench([reader.port])
    drv = ReaderDriver(reader, 0, 16384)
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(40000, until=drv.done)
    ids = {r.axi_id for r in tb.monitor.completed("read")}
    assert len(ids) == 1


def test_reader_tlp_spreads_ids():
    reader = Reader("r", 64, PARAMS, ReaderTuning(n_axi_ids=4, max_in_flight=4))
    tb = build_memory_testbench([reader.port])
    drv = ReaderDriver(reader, 0, 16384)
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(40000, until=drv.done)
    ids = {r.axi_id for r in tb.monitor.completed("read")}
    assert len(ids) == 4


def test_reader_prefetch_buffer_bounds_inflight():
    tuning = ReaderTuning(max_txn_beats=16, buffer_bytes=2048, max_in_flight=8)
    reader = Reader("r", 64, PARAMS, tuning)
    tb = build_memory_testbench([reader.port])
    drv = ReaderDriver(reader, 0, 65536)
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(100000, until=drv.done)
    # 2048-byte buffer = at most 2 x 16-beat bursts reserved at once.
    assert reader._reserved_bytes == 0
    assert bytes(drv.received) == tb.store.read(0, 65536)


def test_reader_rejects_bad_width():
    with pytest.raises(ValueError):
        Reader("bad", 3, PARAMS)
    with pytest.raises(ValueError):
        Reader("bad", 128, PARAMS)


# --------------------------------------------------------------------- writer
@pytest.mark.parametrize("data_bytes", [4, 64])
def test_writer_stores_exact_data(data_bytes):
    writer = Writer("vec_out", data_bytes, PARAMS)
    tb = build_memory_testbench([writer.port])
    payload = bytes((i * 13 + 5) % 256 for i in range(8192))
    drv = WriterDriver(writer, 0x8000, payload)
    tb.sim.add(writer)
    tb.sim.add(drv)
    tb.run(60000, until=drv.done)
    assert tb.store.read(0x8000, len(payload)) == payload


def test_writer_partial_tail_strb():
    writer = Writer("w", 4, PARAMS)
    tb = build_memory_testbench([writer.port])
    tb.store.write(0x1000, b"\xee" * 128)
    payload = bytes(range(100))
    drv = WriterDriver(writer, 0x1000, payload)
    tb.sim.add(writer)
    tb.sim.add(drv)
    tb.run(20000, until=drv.done)
    assert tb.store.read(0x1000, 100) == payload
    # Bytes beyond the payload are untouched thanks to write strobes.
    assert tb.store.read(0x1000 + 100, 28) == b"\xee" * 28


def test_writer_no_tlp_single_id():
    writer = Writer("w", 64, PARAMS, WriterTuning(n_axi_ids=1))
    tb = build_memory_testbench([writer.port])
    drv = WriterDriver(writer, 0, b"\x55" * 16384)
    tb.sim.add(writer)
    tb.sim.add(drv)
    tb.run(60000, until=drv.done)
    ids = {r.axi_id for r in tb.monitor.completed("write")}
    assert len(ids) == 1


def test_reader_writer_memcpy_roundtrip():
    """The canonical microbenchmark: copy via a reader and a writer."""
    reader = Reader("in", 64, PARAMS)
    writer = Writer("out", 64, PARAMS)
    tb = build_memory_testbench([reader.port, writer.port])
    pattern = bytes((i * 31 + 7) % 256 for i in range(16384))
    tb.store.write(0, pattern)

    class CopyCore(Component):
        def __init__(self):
            super().__init__("copy")
            self.started = False
            self.finished = False

        def tick(self, cycle):
            if not self.started:
                reader.request.push(ReadRequest(0, 16384))
                writer.request.push(WriteRequest(0x100000, 16384))
                self.started = True
            if reader.data.can_pop() and writer.data.can_push():
                writer.data.push(reader.data.pop())
            if writer.done.can_pop():
                writer.done.pop()
                self.finished = True

    core = CopyCore()
    tb.sim.add(reader)
    tb.sim.add(writer)
    tb.sim.add(core)
    tb.run(100000, until=lambda: core.finished)
    assert tb.store.read(0x100000, 16384) == pattern


def test_issue_gap_spaces_bursts():
    """The request FSM's issue gap: with ``ar_issue_gap`` and
    ``aw_issue_gap`` at 9, no two of one master's bursts reach the
    controller closer than 9 cycles, and some are exactly 9 apart (read on
    the ``AxiMonitor`` records); the data still lands exactly."""
    gap = 9
    reader = Reader("r", 64, PARAMS, ReaderTuning(max_txn_beats=4, ar_issue_gap=gap))
    writer = Writer("w", 64, PARAMS, WriterTuning(max_txn_beats=4, aw_issue_gap=gap))
    tb = build_memory_testbench([reader.port, writer.port])
    pattern = bytes((i * 29 + 11) % 256 for i in range(4096))
    tb.store.write(0, pattern)
    rdrv = ReaderDriver(reader, 0, 4096)
    wdrv = WriterDriver(writer, 0x100000, pattern)
    for comp in (reader, writer, rdrv, wdrv):
        tb.sim.add(comp)
    tb.run(60000, until=lambda: rdrv.done() and wdrv.done())
    assert bytes(rdrv.received) == pattern
    assert tb.store.read(0x100000, 4096) == pattern
    for kind in ("read", "write"):
        issued = sorted(r.issue_cycle for r in tb.monitor.completed(kind))
        assert len(issued) == 16, kind
        assert min(b - a for a, b in zip(issued, issued[1:])) == gap, kind


# ----------------------------------------------------------------- scratchpad
def test_memory_read_latency():
    mem = Memory(latency=3, data_width=32, n_rows=8)
    mem.write(0, 2, 0xDEADBEEF)
    mem.clock()
    mem.read(0, 2)
    for _ in range(2):
        mem.clock()
        assert mem.rdata(0) is None
    mem.clock()
    assert mem.rdata(0) == 0xDEADBEEF


def test_memory_width_masking():
    mem = Memory(latency=1, data_width=8, n_rows=4)
    mem.write(0, 0, 0x1FF)
    mem.clock()
    mem.read(0, 0)
    mem.clock()
    assert mem.rdata(0) == 0xFF


def test_memory_double_port_use_rejected():
    mem = Memory(latency=1, data_width=8, n_rows=4)
    mem.read(0, 0)
    with pytest.raises(RuntimeError):
        mem.read(0, 1)


def test_memory_row_bounds():
    mem = Memory(latency=1, data_width=8, n_rows=4)
    with pytest.raises(IndexError):
        mem.read(0, 4)


def test_scratchpad_init_from_memory():
    sp = Scratchpad("keys", data_width_bits=32, n_datas=64, axi_params=PARAMS)
    tb = build_memory_testbench([sp.reader.port])
    words = [(i * 2654435761) & 0xFFFFFFFF for i in range(64)]
    blob = b"".join(w.to_bytes(4, "little") for w in words)
    tb.store.write(0x3000, blob)

    class InitDriver(Component):
        def __init__(self):
            super().__init__("initdrv")
            self.sent = False
            self.ready = False

        def tick(self, cycle):
            if not self.sent:
                sp.init.push(ReadRequest(0x3000, 256))
                self.sent = True
            if sp.init_done.can_pop():
                sp.init_done.pop()
                self.ready = True

    drv = InitDriver()
    tb.sim.add(sp)
    tb.sim.add(sp.reader)
    tb.sim.add(drv)
    tb.run(20000, until=lambda: drv.ready)
    assert sp.mem._cells == words


def test_scratchpad_port_read_write():
    sp = Scratchpad("sp", 16, 32, PARAMS, with_init=False, latency=2)
    sim = Simulator()
    sim.add(sp)

    class PortDriver(Component):
        def __init__(self):
            super().__init__("pd")
            self.phase = 0
            self.result = None

        def tick(self, cycle):
            port = sp.ports[0]
            if self.phase == 0 and port.req.can_push():
                port.req.push(SpReq(row=5, write=True, wdata=0x1234))
                self.phase = 1
            elif self.phase == 1 and port.req.can_push():
                port.req.push(SpReq(row=5))
                self.phase = 2
            elif self.phase == 2 and port.resp.can_pop():
                self.result = port.resp.pop()
                self.phase = 3

    drv = sim.add(PortDriver())
    sim.run(100, until=lambda: drv.phase == 3)
    assert drv.result == 0x1234


def test_scratchpad_width_must_be_bytes():
    with pytest.raises(ValueError):
        Scratchpad("bad", 12, 16, PARAMS)
