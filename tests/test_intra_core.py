"""Core-to-core communication through IntraCoreMemory ports.

A two-System accelerator: Producer cores push (row, value) writes into the
matching Consumer core's intra-core memory; the host then asks the consumer
to checksum what arrived.  This exercises the appendix's
``IntraCoreMemoryPortIn/Out`` pair and the elaborator's cross-system link
aliasing.
"""

import pytest

from repro.command.packing import CommandSpec, EmptyAccelResponse, Field, ResponseSpec, UInt
from repro.core import (
    AcceleratorConfig,
    BeethovenBuild,
    IntraCoreMemoryPortInConfig,
    IntraCoreMemoryPortOutConfig,
)
from repro.core.accelerator import AcceleratorCore
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle


class ProducerCore(AcceleratorCore):
    """Writes value = seed + row into the consumer's memory."""

    _state = ("_active", "_row", "_n", "_seed")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.io = self.beethoven_io(
            CommandSpec("produce", (Field("n", UInt(16)), Field("seed", UInt(32)))),
            EmptyAccelResponse(),
        )
        self.link = self.get_intra_core_mem_out("to_consumer")[0]
        self._row = 0
        self._n = 0
        self._seed = 0
        self._active = False

    def tick(self, cycle):
        if not self._active and self.io.req.can_pop():
            cmd = self.io.req.pop()
            self._n, self._seed, self._row = cmd["n"], cmd["seed"], 0
            self._active = True
        if self._active and self._row < self._n and self.link.can_push():
            self.link.push(self._row, (self._seed + self._row) & 0xFFFFFFFF)
            self._row += 1
        if self._active and self._row >= self._n and self.io.resp.can_push():
            self.io.resp.push({})
            self._active = False


class ConsumerCore(AcceleratorCore):
    """Checksums rows [0, n) of its inbox memory through a read port."""

    _state = ("_active", "_issued", "_collected", "_n", "_total")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.io = self.beethoven_io(
            CommandSpec("checksum", (Field("n", UInt(16)),)),
            ResponseSpec("sum", (Field("total", UInt(48)),)),
        )
        self.inbox = self.get_intra_core_mem_ins("inbox")
        self._issued = 0
        self._collected = 0
        self._n = 0
        self._total = 0
        self._active = False

    def tick(self, cycle):
        if not self._active and self.io.req.can_pop():
            cmd = self.io.req.pop()
            self._n, self._issued, self._collected, self._total = cmd["n"], 0, 0, 0
            self._active = True
            return
        if not self._active:
            return
        mem = self.inbox.mem
        data = mem.rdata(0)
        if data is not None:
            self._total += data
            self._collected += 1
        if self._issued < self._n:
            mem.read(0, self._issued)
            self._issued += 1
        if self._collected >= self._n and self.io.resp.can_push():
            self.io.resp.push({"total": self._total})
            self._active = False


def make_design(n_cores=1):
    producer = AcceleratorConfig(
        name="Producer",
        n_cores=n_cores,
        module_constructor=ProducerCore,
        memory_channel_config=(
            IntraCoreMemoryPortOutConfig(
                "to_consumer", to_system="Consumer", to_memory_port="inbox"
            ),
        ),
    )
    consumer = AcceleratorConfig(
        name="Consumer",
        n_cores=n_cores,
        module_constructor=ConsumerCore,
        memory_channel_config=(
            IntraCoreMemoryPortInConfig(
                "inbox", n_channels=1, ports_per_channel=1,
                data_width_bits=32, n_datas=256,
            ),
        ),
    )
    build = BeethovenBuild([producer, consumer], SimulationPlatform())
    return build, FpgaHandle(build.design)


def test_producer_fills_consumer_memory():
    build, handle = make_design()
    handle.call("Producer", "produce", 0, n=64, seed=1000).get()
    resp = handle.call("Consumer", "checksum", 0, n=64).get()
    assert resp["total"] == sum(1000 + i for i in range(64))


def test_intra_core_per_core_pairing():
    """Core i of the producer system feeds core i of the consumer system."""
    build, handle = make_design(n_cores=2)
    handle.call("Producer", "produce", 0, n=8, seed=100).get()
    handle.call("Producer", "produce", 1, n=8, seed=200).get()
    r0 = handle.call("Consumer", "checksum", 0, n=8).get()
    r1 = handle.call("Consumer", "checksum", 1, n=8).get()
    assert r0["total"] == sum(100 + i for i in range(8))
    assert r1["total"] == sum(200 + i for i in range(8))


def test_broadcast_comm_degree():
    """One producer core fills EVERY consumer core's memory."""
    producer = AcceleratorConfig(
        name="Producer",
        n_cores=1,
        module_constructor=ProducerCore,
        memory_channel_config=(
            IntraCoreMemoryPortOutConfig(
                "to_consumer", to_system="Consumer", to_memory_port="inbox"
            ),
        ),
    )
    consumer = AcceleratorConfig(
        name="Consumer",
        n_cores=3,
        module_constructor=ConsumerCore,
        memory_channel_config=(
            IntraCoreMemoryPortInConfig(
                "inbox", n_channels=1, ports_per_channel=1,
                data_width_bits=32, n_datas=256, comm_degree="broadcast",
            ),
        ),
    )
    build = BeethovenBuild([producer, consumer], SimulationPlatform())
    handle = FpgaHandle(build.design)
    handle.call("Producer", "produce", 0, n=16, seed=7).get()
    expected = sum(7 + i for i in range(16))
    for core in range(3):
        resp = handle.call("Consumer", "checksum", core, n=16).get()
        assert resp["total"] == expected


def test_unknown_target_system_rejected():
    bad = AcceleratorConfig(
        name="Bad",
        n_cores=1,
        module_constructor=ProducerCore,
        memory_channel_config=(
            IntraCoreMemoryPortOutConfig(
                "to_consumer", to_system="Nowhere", to_memory_port="inbox"
            ),
        ),
    )
    with pytest.raises(ValueError, match="unknown system"):
        BeethovenBuild([bad], SimulationPlatform())


def test_unknown_target_port_rejected():
    producer = AcceleratorConfig(
        name="Producer",
        n_cores=1,
        module_constructor=ProducerCore,
        memory_channel_config=(
            IntraCoreMemoryPortOutConfig(
                "to_consumer", to_system="Consumer", to_memory_port="wrong"
            ),
        ),
    )
    consumer = AcceleratorConfig(
        name="Consumer",
        n_cores=1,
        module_constructor=ConsumerCore,
        memory_channel_config=(
            IntraCoreMemoryPortInConfig(
                "inbox", n_channels=1, ports_per_channel=1,
                data_width_bits=32, n_datas=256,
            ),
        ),
    )
    with pytest.raises(ValueError, match="unknown memory port"):
        BeethovenBuild([producer, consumer], SimulationPlatform())
