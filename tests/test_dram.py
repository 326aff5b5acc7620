"""Unit tests for the DRAM model and memory controller."""

import pytest

from repro.axi import (
    ARReq,
    AWReq,
    AxiMonitor,
    AxiParams,
    AxiPort,
    MonitoredAxiPort,
    WBeat,
)
from repro.dram import DDR4_AWS_F1, MemoryController, MemoryStore, DramTiming
from repro.obs.attribution import contention_summary
from repro.sim import Component, Simulator


def make_stack(depth=8):
    port = AxiPort(AxiParams(), depth=depth)
    mon = AxiMonitor("mem")
    mport = MonitoredAxiPort(port, mon)
    mc = MemoryController(mport, DDR4_AWS_F1)
    sim = Simulator()
    for ch in port.channels():
        sim.register_channel(ch)
    sim.add(mc)
    return sim, port, mport, mc, mon


class ScriptedMaster(Component):
    """Issues a scripted list of reads/writes and records results."""

    def __init__(self, port, mport, script):
        super().__init__("scripted")
        self.port = port
        self.mport = mport
        self.script = list(script)
        self.read_data = {}
        self.write_done = set()
        self._w_queue = []
        self._read_expect = {}  # tag -> expected bytes
        self._expected_reads = sum(1 for s in script if s[0] == "r")
        self._expected_writes = sum(1 for s in script if s[0] == "w")

    def tick(self, cycle):
        if self.script:
            op = self.script[0]
            if op[0] == "barrier":
                # AXI gives no read-after-write ordering, even on the same
                # ID: masters needing it must wait for the write response.
                if len(self.write_done) == self._expected_writes and not self._w_queue:
                    self.script.pop(0)
            elif op[0] == "r" and self.port.ar.can_push():
                _, axi_id, addr, beats = op
                req = ARReq(axi_id=axi_id, addr=addr, length=beats)
                self.mport.push_ar(cycle, req)
                self.read_data[req.tag] = bytearray()
                self._read_expect[req.tag] = beats * 64
                self.script.pop(0)
            elif op[0] == "w" and self.port.aw.can_push():
                _, axi_id, addr, data = op
                beats = -(-len(data) // 64)
                req = AWReq(axi_id=axi_id, addr=addr, length=beats)
                self.mport.push_aw(cycle, req)
                self._w_queue.append((req.tag, data, 0, beats))
                self.script.pop(0)
        if self._w_queue and self.port.w.can_push():
            tag, data, sent, beats = self._w_queue[0]
            chunk = data[sent * 64 : (sent + 1) * 64]
            chunk = chunk + bytes(64 - len(chunk))
            self.mport.push_w(cycle, WBeat(chunk, last=sent == beats - 1))
            if sent == beats - 1:
                self._w_queue.pop(0)
            else:
                self._w_queue[0] = (tag, data, sent + 1, beats)
        if self.port.r.can_pop():
            beat = self.port.r.pop()[1]
            self.read_data[beat.tag].extend(beat.data)
        if self.port.b.can_pop():
            resp = self.port.b.pop()[1]
            self.write_done.add(resp.tag)

    def done(self):
        reads_ok = len(self.read_data) == self._expected_reads and all(
            len(v) == self._read_expect[tag] for tag, v in self.read_data.items()
        )
        return (
            not self.script
            and not self._w_queue
            and len(self.write_done) == self._expected_writes
            and reads_ok
        )


def test_store_roundtrip():
    store = MemoryStore()
    store.write(100, b"hello world")
    assert store.read(100, 11) == b"hello world"
    assert store.read(95, 5) == bytes(5)


def test_store_strb_masking():
    store = MemoryStore()
    store.write(0, b"\xff" * 8)
    store.write(0, b"\x00" * 8, strb=bytes([1, 0, 1, 0, 1, 0, 1, 0]))
    assert store.read(0, 8) == bytes([0, 0xFF] * 4)


def test_store_cross_block_access():
    store = MemoryStore(block_bytes=64)
    data = bytes(range(200)) + bytes(56)
    store.write(40, data)
    assert store.read(40, 256) == data


def test_read_returns_stored_data():
    sim, port, mport, mc, mon = make_stack()
    pattern = bytes(range(256)) * 16
    mc.store.write(0x2000, pattern)
    m = sim.add(ScriptedMaster(port, mport, [("r", 0, 0x2000, 64)]))
    sim.run(2000, until=m.done)
    assert bytes(list(m.read_data.values())[0]) == pattern


def test_write_then_read_same_id():
    sim, port, mport, mc, mon = make_stack()
    payload = b"\xab" * 4096
    m = sim.add(
        ScriptedMaster(
            port,
            mport,
            [("w", 3, 0x4000, payload), ("barrier",), ("r", 3, 0x4000, 64)],
        )
    )
    sim.run(4000, until=m.done)
    assert bytes(list(m.read_data.values())[0]) == payload


def test_same_id_reads_return_in_order():
    sim, port, mport, mc, mon = make_stack()
    mc.store.write(0x0, bytes([1] * 64))
    mc.store.write(0x40000, bytes([2] * 64))
    m = sim.add(
        ScriptedMaster(
            port, mport, [("r", 0, 0x0, 1), ("r", 0, 0x40000, 1), ("r", 0, 0x40, 1)]
        )
    )
    sim.run(2000, until=m.done)
    recs = mon.completed("read")
    assert [r.addr for r in recs] == [0x0, 0x40000, 0x40]
    assert recs[0].complete_cycle < recs[1].complete_cycle < recs[2].complete_cycle


def test_different_ids_can_complete_out_of_order():
    """A row-miss transaction on one ID must not block a row-hit on another."""
    sim, port, mport, mc, mon = make_stack()
    # Warm the row at 0x0 by writing (opens the row for bank 0).
    m = sim.add(
        ScriptedMaster(
            port,
            mport,
            [("r", 0, 0x100000, 32), ("r", 1, 0x100040 - 0x40, 1)],
        )
    )
    sim.run(4000, until=m.done)
    assert mon.outstanding() == 0


def test_row_hit_streaming_is_fast():
    """Sequential 4KB reads should run near one beat per cycle."""
    sim, port, mport, mc, mon = make_stack()
    m = sim.add(ScriptedMaster(port, mport, [("r", 0, 0x0, 64)]))
    sim.run(2000, until=m.done)
    rec = mon.completed("read")[0]
    assert rec.latency < 100  # 64 beats + activate + CAS + slack


def test_refresh_blocks_banks():
    timing = DramTiming(t_refi=100, t_rfc=50)
    port = AxiPort(AxiParams(), depth=8)
    mon = AxiMonitor("mem")
    mport = MonitoredAxiPort(port, mon)
    mc = MemoryController(mport, timing)
    sim = Simulator()
    for ch in port.channels():
        sim.register_channel(ch)
    sim.add(mc)
    sim.run(101)
    assert mc.refreshes == 1
    assert all(b.ready_at >= 150 for b in mc.banks)


def test_beat_width_mismatch_rejected():
    port = AxiPort(AxiParams(beat_bytes=32))
    mon = AxiMonitor("mem")
    with pytest.raises(ValueError):
        MemoryController(MonitoredAxiPort(port, mon), DDR4_AWS_F1)


def test_bus_utilisation_stat():
    sim, port, mport, mc, mon = make_stack()
    m = sim.add(ScriptedMaster(port, mport, [("r", 0, 0x0, 64)]))
    sim.run(2000, until=m.done)
    dram = contention_summary(sim.registry.dump(), sim.cycle)["dram"]
    assert 0 < dram["bus_utilization"] <= 1.0


def test_channel_report_consistency():
    sim, port, mport, mc, mon = make_stack()
    m = sim.add(ScriptedMaster(port, mport, [("r", 0, 0x0, 64), ("w", 1, 0x9000, b"\xaa" * 4096)]))
    sim.run(4000, until=m.done)
    dram = contention_summary(sim.registry.dump(), sim.cycle)["dram"]
    assert dram["read_cols"] * mc.timing.col_bytes == 4096
    assert dram["write_cols"] * mc.timing.col_bytes == 4096
    assert (dram["read_cols"], dram["write_cols"]) == (mc.read_cols, mc.write_cols)
    assert 0 < dram["bus_utilization"] <= 1
    assert 0 <= dram["row_hit_rate"] <= 1


def test_address_decompose_spreads_banks():
    t = DDR4_AWS_F1
    banks = {t.decompose(addr)[0] for addr in range(0, 16 * t.row_bytes, t.row_bytes)}
    assert len(banks) == min(16, t.n_banks)
