"""Unit and integration tests for Reader, Writer, Scratchpad and Memory."""

import pickle

import pytest

from repro.axi import AxiMonitor, AxiParams
from repro.axi.types import BResp, RBeat
from repro.memory import (
    MasterTuning,
    Memory,
    Reader,
    ReadRequest,
    Scratchpad,
    SpReq,
    split_into_bursts,
    Writer,
    WriteRequest,
)
from repro.sim import SCHEDULING_MODES, Component, Simulator
from repro.snapshot import capture_sim_state, restore_sim_state
from repro.testing import build_memory_testbench

PARAMS = AxiParams()


class ReaderDriver(Component):
    """Pushes one read request and collects the data stream, popping none
    before cycle ``start``."""

    def __init__(self, reader, addr, length, start=0):
        super().__init__("rdrv")
        self.reader = reader
        self.req = ReadRequest(addr, length)
        self.sent = False
        self.received = bytearray()
        self.expect = length
        self.start = start

    def tick(self, cycle):
        if not self.sent and self.reader.request.can_push():
            self.reader.request.push(self.req)
            self.sent = True
        while cycle >= self.start and self.reader.data.can_pop():
            self.received.extend(self.reader.data.pop())

    def done(self):
        return len(self.received) >= self.expect


class WriterDriver(Component):
    """Feeds a writer with data chunks and waits for completion."""

    _state = ("sent_req", "offset", "finished")

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
    reader = Reader("r", 64, PARAMS, MasterTuning(n_axi_ids=1, max_in_flight=4))
    tb = build_memory_testbench([reader.port])
    drv = ReaderDriver(reader, 0, 16384)
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(40000, until=drv.done)
    ids = {r.axi_id for r in tb.monitor.completed("read")}
    assert len(ids) == 1


def test_reader_tlp_spreads_ids():
    reader = Reader("r", 64, PARAMS, MasterTuning(n_axi_ids=4, max_in_flight=4))
    tb = build_memory_testbench([reader.port])
    drv = ReaderDriver(reader, 0, 16384)
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(40000, until=drv.done)
    ids = {r.axi_id for r in tb.monitor.completed("read")}
    assert len(ids) == 4


def test_reader_prefetch_buffer_bounds_inflight():
    tuning = MasterTuning(max_txn_beats=16, buffer_bytes=2048, max_in_flight=8)
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
    writer = Writer("w", 64, PARAMS, MasterTuning(n_axi_ids=1))
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
    """The request FSM's issue gap: with ``issue_gap`` at 9, no two of one
    master's bursts reach the controller closer than 9 cycles, and some are
    exactly 9 apart (read on the ``AxiMonitor`` records); the data still
    lands exactly."""
    gap = 9
    reader = Reader("r", 64, PARAMS, MasterTuning(max_txn_beats=4, issue_gap=gap))
    writer = Writer("w", 64, PARAMS, MasterTuning(max_txn_beats=4, issue_gap=gap))
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


# ---------------------------------------------------------- stall split
class _StubSlave(Component):
    """A hand-timed AXI slave on one master port.

    An :class:`AxiMonitor` snoops every AR/AW the cycle it becomes visible
    and records it at the cycle before, when the master pushed it (the
    channels are registered).  Addresses are accepted one per cycle from
    ``accept_from`` on; a read burst's beats leave ``latency`` cycles after
    its AR was accepted, a write burst's B ``latency`` cycles after both its
    AW and its last W beat were taken.  W beats are taken as they arrive,
    their bytes kept in ``written``.
    """

    _state = ("seen", "r_due", "aw_taken", "w_ended", "b_due", "written")

    def __init__(self, port, accept_from, latency):
        super().__init__("stub")
        self.port = port
        self.accept_from = accept_from
        self.latency = latency
        self.monitor = AxiMonitor("stub")
        self.seen = set()
        self.r_due = []  # (cycle, (axi_id, RBeat)), in push order
        self.aw_taken = []  # accepted AWs whose W burst has not ended
        self.w_ended = 0  # W bursts that ended before their AW was taken
        self.b_due = []
        self.written = bytearray()

    def channels(self):
        return []  # the master owns and registers its port

    def _snoop(self, chan, hook, cycle):
        for k in range(len(chan)):
            req = chan.peek(k)
            if req.tag not in self.seen:
                self.seen.add(req.tag)
                hook(cycle - 1, req.tag, req.axi_id, req.addr, req.length)

    def tick(self, cycle):
        port, mon = self.port, self.monitor
        self._snoop(port.ar, mon.on_ar, cycle)
        self._snoop(port.aw, mon.on_aw, cycle)
        if cycle >= self.accept_from and port.ar.can_pop():
            req = port.ar.pop()
            for i in range(req.length):
                beat = RBeat(bytes(port.params.beat_bytes), i == req.length - 1, req.tag)
                self.r_due.append((cycle + self.latency + i, (req.axi_id, beat)))
        if cycle >= self.accept_from and port.aw.can_pop():
            self.aw_taken.append(port.aw.pop())
            if self.w_ended:
                self.w_ended -= 1
                req = self.aw_taken.pop(0)
                self.b_due.append((cycle + self.latency, (req.axi_id, BResp(True, req.tag))))
        beat = port.w.pop() if port.w.can_pop() else None
        if beat is not None:
            self.written += beat.data
        if beat is not None and beat.last:
            if self.aw_taken:
                req = self.aw_taken.pop(0)
                self.b_due.append((cycle + self.latency, (req.axi_id, BResp(True, req.tag))))
            else:
                self.w_ended += 1
        for due, chan, on in ((self.r_due, port.r, mon.on_r), (self.b_due, port.b, None)):
            if due and due[0][0] <= cycle and chan.can_push():
                item = due.pop(0)[1]
                chan.push(item)
                axi_id, payload = item
                if on is not None:
                    on(cycle, payload.tag, axi_id, payload.last)
                else:
                    mon.on_b(cycle, payload.tag, axi_id)


GAP, LATENCY, ACCEPT_FROM, CONSUME_FROM = 3, 4, 5, 40

# Closed form, one-beat bursts, the request taken at cycle 1 and the head
# burst issued there.  Burst k >= 1 becomes eligible the cycle after burst
# k-1 issued and waits GAP - 1 cycles for the issue gap.
#
# One burst in flight: burst 1 then waits for burst 0's reply, whose address
# the sink holds until ACCEPT_FROM: accepted at ACCEPT_FROM, its reply is
# pushed LATENCY later, taken the cycle after, and the window is free the
# cycle after that, ACCEPT_FROM + LATENCY + 2, against a gap deadline of
# 1 + GAP.  Bursts 2 and 3 are accepted the cycle after they issue and
# wait LATENCY + 3 - GAP each.  The address channel can never fill: the one
# burst it could hold is the one in flight, so nothing is backpressure.
# The Reader's buffer holds one burst and its two-deep data channel fills
# with bursts 0 and 1: burst 2's data stays in the buffer until the
# consumer pops the channel at CONSUME_FROM, is delivered the cycle after,
# and burst 3 issues at CONSUME_FROM + 2.  It had been eligible since burst
# 2 issued at ACCEPT_FROM + 2 * LATENCY + 5 and the window freed
# LATENCY + 3 after that.
_INFLIGHT_1 = (ACCEPT_FROM + LATENCY + 1 - GAP) + 2 * (LATENCY + 3 - GAP)
_BURST2_ISSUED = ACCEPT_FROM + 2 * LATENCY + 5
WINDOW_EXPECT = {
    "read": {"stall_gap_cycles": 3 * (GAP - 1), "stall_inflight_cycles": _INFLIGHT_1,
               "stall_buffer_cycles": CONSUME_FROM + 2 - (_BURST2_ISSUED + LATENCY + 3),
               "stall_backpressure_cycles": 0},
    "write": {"stall_gap_cycles": 3 * (GAP - 1), "stall_inflight_cycles": _INFLIGHT_1,
               "stall_backpressure_cycles": 0},
}
# Eight bursts in flight, the sink holding every address until cycle
# STALL_UNTIL: bursts 0-3 fill the four-deep address channel at 1, 1 + GAP,
# 1 + 2 GAP and 1 + 3 GAP.  Burst 4 waits its gap, then for the pop at
# STALL_UNTIL to commit, issuing at STALL_UNTIL + 1; the sink then drains a
# burst a cycle, faster than the gap lets the master issue, so bursts 5-7
# wait only for the gap.  Neither the window nor the buffer ever binds.
STALL_UNTIL = 20
BACKPRESSURE_EXPECT = {
    "stall_gap_cycles": 7 * (GAP - 1), "stall_inflight_cycles": 0,
    "stall_buffer_cycles": 0, "stall_backpressure_cycles": STALL_UNTIL - 4 * GAP,
}


def _run_stall_case(kind, scheduling, n_bursts, max_in_flight, buffer_bytes,
                    accept_from, consume_from=0):
    if kind == "read":
        tuning = MasterTuning(max_txn_beats=1, n_axi_ids=2, max_in_flight=max_in_flight,
                              buffer_bytes=buffer_bytes, issue_gap=GAP)
        master = Reader("r", 64, PARAMS, tuning)
        drv = ReaderDriver(master, 0, 64 * n_bursts, consume_from)
    else:
        tuning = MasterTuning(max_txn_beats=1, n_axi_ids=2, max_in_flight=max_in_flight,
                              issue_gap=GAP)
        master = Writer("w", 64, PARAMS, tuning)
        drv = WriterDriver(master, 0, bytes(64 * n_bursts))
    slave = _StubSlave(master.port, accept_from, LATENCY)
    sim = Simulator(scheduling=scheduling)
    for comp in (master, drv, slave, slave.monitor):
        sim.add(comp)
    sim.run(2000, until=drv.done)
    assert drv.done() and master.idle()
    issued = [r.issue_cycle for r in slave.monitor.completed(kind)]
    assert len(issued) == n_bursts and issued[0] == 1
    split = {k: getattr(master, k) for k in (
        "stall_gap_cycles", "stall_inflight_cycles", "stall_buffer_cycles",
        "stall_backpressure_cycles") if hasattr(master, k)}
    # Every burst after the head was eligible the cycle after its
    # predecessor issued, so its wait is the gap between the two issue
    # cycles the monitor recorded, less one.
    assert sum(split.values()) == sum(b - a - 1 for a, b in zip(issued, issued[1:]))
    return split


@pytest.mark.parametrize("scheduling", SCHEDULING_MODES)
@pytest.mark.parametrize("kind", ["read", "write"])
def test_stall_split_one_burst_in_flight(kind, scheduling):
    """With one burst in flight, the issue gap, the in-flight window and
    (for the Reader) the prefetch buffer take every cycle the head waits,
    each the closed-form count above."""
    split = _run_stall_case(kind, scheduling, 4, 1, 64, ACCEPT_FROM, CONSUME_FROM)
    assert split == WINDOW_EXPECT[kind]


@pytest.mark.parametrize("scheduling", SCHEDULING_MODES)
@pytest.mark.parametrize("kind", ["read", "write"])
def test_stall_split_stalled_address_sink(kind, scheduling):
    """A sink that holds every address until ``STALL_UNTIL`` fills the
    address channel: the cycles past the gap are backpressure."""
    split = _run_stall_case(kind, scheduling, 8, 8, 8 * 64, STALL_UNTIL)
    expect = dict(BACKPRESSURE_EXPECT)
    if kind == "write":
        del expect["stall_buffer_cycles"]
    assert split == expect


@pytest.mark.parametrize("scheduling", SCHEDULING_MODES)
def test_writer_restored_with_staged_bursts_resumes_exactly(scheduling):
    """A Writer captured while staged bursts wait behind a held AW channel
    resumes on a rebuilt twin exactly as the uninterrupted run: the same
    issue and completion cycles and the same bytes on W."""
    def build():
        writer = Writer("w", 64, PARAMS, MasterTuning(max_txn_beats=1, max_in_flight=1))
        drv = WriterDriver(writer, 0, bytes(range(256)) * 2)
        slave = _StubSlave(writer.port, 30, LATENCY)
        sim = Simulator(scheduling=scheduling)
        for comp in (writer, drv, slave, slave.monitor):
            sim.add(comp)
        return sim, writer, drv, slave

    def finish(sim, drv, slave):
        sim.run(2000, until=drv.done)
        records = [(r.issue_cycle, r.complete_cycle) for r in slave.monitor.records]
        return sim.cycle, records, bytes(slave.written)

    sim, _, drv, slave = build()
    want = finish(sim, drv, slave)
    assert want[2] == bytes(range(256)) * 2
    sim, writer, _, _ = build()
    sim.run(10)
    assert len(writer._issue_q) > 1
    payload = pickle.loads(pickle.dumps(capture_sim_state(sim)))
    sim, _, drv, slave = build()
    restore_sim_state(sim, payload)
    assert finish(sim, drv, slave) == want


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
