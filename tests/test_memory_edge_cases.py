"""Edge cases for the memory primitives: tiny transfers, queued requests."""

import pytest

from repro.axi import AxiParams
from repro.memory import (
    MasterTuning,
    Reader,
    ReadRequest,
    Writer,
    WriteRequest,
)
from repro.sim import Component
from repro.testing import build_memory_testbench

PARAMS = AxiParams()


class MultiReadDriver(Component):
    """Issues several read requests back-to-back; data must concatenate in
    request order."""

    def __init__(self, reader, requests):
        super().__init__("mrd")
        self.reader = reader
        self.pending = list(requests)
        self.expect = sum(n for _a, n in requests)
        self.received = bytearray()

    def tick(self, cycle):
        if self.pending and self.reader.request.can_push():
            addr, n = self.pending.pop(0)
            self.reader.request.push(ReadRequest(addr, n))
        while self.reader.data.can_pop():
            self.received.extend(self.reader.data.pop())

    def done(self):
        return len(self.received) >= self.expect


def test_reader_single_byte():
    reader = Reader("r", 1, PARAMS)
    tb = build_memory_testbench([reader.port])
    tb.store.write(64, b"\x5a")
    drv = MultiReadDriver(reader, [(64, 1)])
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(5000, until=drv.done)
    assert bytes(drv.received) == b"\x5a"


def test_reader_queued_requests_keep_order():
    reader = Reader("r", 16, PARAMS)
    tb = build_memory_testbench([reader.port])
    tb.store.write(0, b"A" * 256)
    tb.store.write(0x10000, b"B" * 256)
    tb.store.write(0x20000, b"C" * 64)
    drv = MultiReadDriver(reader, [(0, 256), (0x10000, 256), (0x20000, 64)])
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(20000, until=drv.done)
    assert bytes(drv.received) == b"A" * 256 + b"B" * 256 + b"C" * 64


def test_writer_single_chunk():
    writer = Writer("w", 4, PARAMS)
    tb = build_memory_testbench([writer.port])

    class D(Component):
        def __init__(self):
            super().__init__("d")
            self.state = 0

        def tick(self, cycle):
            if self.state == 0:
                writer.request.push(WriteRequest(128, 4))
                self.state = 1
            elif self.state == 1 and writer.data.can_push():
                writer.data.push(b"\x01\x02\x03\x04")
                self.state = 2
            elif writer.done.can_pop():
                writer.done.pop()
                self.state = 3

    d = D()
    tb.sim.add(writer)
    tb.sim.add(d)
    tb.run(5000, until=lambda: d.state == 3)
    assert tb.store.read(128, 4) == b"\x01\x02\x03\x04"


def test_writer_back_to_back_requests():
    writer = Writer("w", 16, PARAMS)
    tb = build_memory_testbench([writer.port])
    payloads = [bytes([i + 1] * 128) for i in range(3)]

    class D(Component):
        def __init__(self):
            super().__init__("d")
            self.req_i = 0
            self.data_i = 0
            self.off = 0
            self.done_count = 0

        def tick(self, cycle):
            if self.req_i < 3 and writer.request.can_push():
                writer.request.push(WriteRequest(self.req_i * 0x1000, 128))
                self.req_i += 1
            if self.data_i < 3 and writer.data.can_push():
                chunk = payloads[self.data_i][self.off : self.off + 16]
                writer.data.push(chunk)
                self.off += 16
                if self.off >= 128:
                    self.off = 0
                    self.data_i += 1
            if writer.done.can_pop():
                writer.done.pop()
                self.done_count += 1

    d = D()
    tb.sim.add(writer)
    tb.sim.add(d)
    tb.run(30000, until=lambda: d.done_count == 3)
    for i, payload in enumerate(payloads):
        assert tb.store.read(i * 0x1000, 128) == payload


def test_reader_misaligned_address_raises_at_split():
    with pytest.raises(ValueError):
        from repro.memory import split_into_bursts

        split_into_bursts(7, 64, 64, 64)


def test_reader_idle_reporting():
    reader = Reader("r", 64, PARAMS)
    tb = build_memory_testbench([reader.port])
    drv = MultiReadDriver(reader, [(0, 4096)])
    tb.sim.add(reader)
    tb.sim.add(drv)
    assert reader.idle()
    tb.run(20000, until=drv.done)
    tb.run(20)
    assert reader.idle()


def test_tiny_tuning_still_functions():
    tuning = MasterTuning(max_txn_beats=1, n_axi_ids=1, max_in_flight=1, buffer_bytes=64)
    reader = Reader("r", 64, PARAMS, tuning)
    tb = build_memory_testbench([reader.port])
    tb.store.write(0, bytes(range(128)) + bytes(128))
    drv = MultiReadDriver(reader, [(0, 256)])
    tb.sim.add(reader)
    tb.sim.add(drv)
    tb.run(20000, until=drv.done)
    assert bytes(drv.received) == tb.store.read(0, 256)
