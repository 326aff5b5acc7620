"""Tests for the generated on-chip networks."""

import pytest

from repro.axi import AxiParams, AxiPort
from repro.memory import Reader, ReaderTuning, ReadRequest, Writer, WriteRequest
from repro.noc import TreeConfig, bits_for, build_network, plan_tree
from repro.sim import Component, SimulationError
from repro.testing import build_memory_testbench

PARAMS = AxiParams()


def test_bits_for():
    assert bits_for(1) == 0
    assert bits_for(2) == 1
    assert bits_for(8) == 3
    assert bits_for(9) == 4


class _StreamDriver(Component):
    def __init__(self, reader, addr, length):
        super().__init__("drv")
        self.reader = reader
        self.addr = addr
        self.length = length
        self.sent = False
        self.received = bytearray()

    def tick(self, cycle):
        if not self.sent and self.reader.request.can_push():
            self.reader.request.push(ReadRequest(self.addr, self.length))
            self.sent = True
        while self.reader.data.can_pop():
            self.received.extend(self.reader.data.pop())


@pytest.mark.parametrize("n_readers,fanout", [(3, 2), (8, 4), (12, 8)])
def test_tree_delivers_all_streams(n_readers, fanout):
    readers = [Reader(f"r{i}", 64, PARAMS) for i in range(n_readers)]
    tb = build_memory_testbench(
        [r.port for r in readers],
        tree_config=TreeConfig(fanout=fanout),
    )
    patterns = []
    drivers = []
    for i, reader in enumerate(readers):
        base = i * 0x10000
        pat = bytes(((i + 1) * j) % 256 for j in range(4096))
        tb.store.write(base, pat)
        patterns.append(pat)
        drivers.append(_StreamDriver(reader, base, 4096))
        tb.sim.add(reader)
        tb.sim.add(drivers[-1])
    tb.run(200000, until=lambda: all(len(d.received) >= 4096 for d in drivers))
    for drv, pat in zip(drivers, patterns):
        assert bytes(drv.received) == pat


def test_slr_aware_tree_builds_bridges():
    ports = [AxiPort(PARAMS, f"p{i}") for i in range(6)]
    config = TreeConfig(fanout=4, slr_crossing_latency=4)
    from repro.axi import AxiMonitor, MonitoredAxiPort
    from repro.noc import AxiBufferNode, AxiPipe, IdCompressor

    target = MonitoredAxiPort(AxiPort(PARAMS, "mem"), AxiMonitor("mem"))
    plan = plan_tree(config, [i % 3 for i in range(6)], child_id_bits=2, root_slr=0)
    assert plan.n_pipes == 2  # SLR1 and SLR2 each bridge to SLR0
    assert plan.n_nodes >= 3  # one subtree node per SLR at least
    assert plan.max_fanout <= 4
    pipes = [spec for spec in plan.nodes if spec.kind == "pipe"]
    assert [(p.up_slr, p.slr, p.latency) for p in pipes] == [(1, 0, 4), (2, 0, 4)]
    # The built network is the plan, component for component.
    net = build_network(plan, ports, target)
    kinds = {AxiBufferNode: "node", AxiPipe: "pipe", IdCompressor: "idmap"}
    assert [(kinds[type(c)], c.name) for c in net.components] == [
        (spec.kind, spec.name) for spec in plan.nodes
    ]
    assert [p.name for p in net.interior_ports] == [
        spec.port for spec in plan.nodes if spec.port is not None
    ]


def test_flat_network_single_arbiter():
    ports = [AxiPort(PARAMS, f"p{i}") for i in range(10)]
    from repro.axi import AxiMonitor, MonitoredAxiPort

    target = MonitoredAxiPort(AxiPort(PARAMS, "mem"), AxiMonitor("mem"))
    plan = plan_tree(TreeConfig(slr_aware=False), [0] * 10, child_id_bits=2)
    assert plan.n_nodes == 1
    assert plan.max_fanout == 10
    assert plan.n_pipes == 0
    net = build_network(plan, ports, target)
    assert net.components[0].upstreams == ports


def test_mixed_readers_writers_share_network():
    reader = Reader("r", 64, PARAMS)
    writer = Writer("w", 64, PARAMS)
    tb = build_memory_testbench([reader.port, writer.port], slrs=[0, 2])
    pattern = bytes(range(256)) * 8
    tb.store.write(0, pattern)

    class Copier(Component):
        def __init__(self):
            super().__init__("copier")
            self.state = 0

        def tick(self, cycle):
            if self.state == 0:
                reader.request.push(ReadRequest(0, 2048))
                writer.request.push(WriteRequest(0x40000, 2048))
                self.state = 1
            if reader.data.can_pop() and writer.data.can_push():
                writer.data.push(reader.data.pop())
            if writer.done.can_pop():
                writer.done.pop()
                self.state = 2

    cop = Copier()
    tb.sim.add(reader)
    tb.sim.add(writer)
    tb.sim.add(cop)
    tb.run(100000, until=lambda: cop.state == 2)
    assert tb.store.read(0x40000, 2048) == pattern


def test_id_compression_preserves_ordering_pressure():
    """Many masters folded onto few controller IDs still all complete."""
    tuning = ReaderTuning(n_axi_ids=4, max_in_flight=4)
    readers = [Reader(f"r{i}", 64, PARAMS, tuning) for i in range(6)]
    tb = build_memory_testbench([r.port for r in readers])
    drivers = []
    for i, reader in enumerate(readers):
        tb.store.write(i * 0x8000, bytes([i + 1] * 8192))
        drivers.append(_StreamDriver(reader, i * 0x8000, 8192))
        tb.sim.add(reader)
        tb.sim.add(drivers[-1])
    tb.run(400000, until=lambda: all(len(d.received) >= 8192 for d in drivers))
    for i, drv in enumerate(drivers):
        assert bytes(drv.received) == bytes([i + 1] * 8192)
    assert tb.monitor.outstanding() == 0


def test_node_rejects_id_overflow():
    from repro.noc import AxiBufferNode

    small = AxiParams(id_bits=2)
    ports = [AxiPort(small, f"p{i}") for i in range(4)]
    down = AxiPort(small, "down")
    with pytest.raises(SimulationError, match="ID bits"):
        AxiBufferNode(ports, down, child_id_bits=2)
