"""Vector-addition core — the paper's running example (Figures 2 and 3).

Streams a vector of 32-bit words from memory through a Reader, adds a scalar
``addend``, and writes the result back over the same region through a Writer.
The configuration helper builds the exact System of Figure 3a.
"""

from __future__ import annotations

from repro.command.packing import Address, CommandSpec, EmptyAccelResponse, Field, UInt
from repro.core.accelerator import AcceleratorCore
from repro.core.config import (
    AcceleratorConfig,
    ReadChannelConfig,
    WriteChannelConfig,
)
from repro.fpga.device import ResourceVector
from repro.memory.types import ReadRequest, WriteRequest
from repro.sim import NEVER


class VectorAddCore(AcceleratorCore):
    """``for i in range(n_eles): vec[i] += addend`` (32-bit wraparound)."""

    _snapshot_exclude = ("io", "vec_in", "vec_out")  # wiring, rebuilt by elaboration

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.io = self.beethoven_io(
            CommandSpec(
                "my_accel",
                (
                    Field("addend", UInt(32)),
                    Field("vec_addr", Address()),
                    Field("n_eles", UInt(20)),
                ),
            ),
            EmptyAccelResponse(),
        )
        self.vec_in = self.get_reader_module("vec_in")
        self.vec_out = self.get_writer_module("vec_out")
        self._addend = 0
        self._active = False
        self.words_processed = 0

    def kernel_resources(self) -> ResourceVector:
        # A 32-bit adder plus a tiny FSM.
        return ResourceVector(clb=20, lut=120, reg=140)

    def tick(self, cycle: int) -> None:
        io = self.io
        if (
            not self._active
            and io.req.can_pop()
            and self.vec_in.request.can_push()
            and self.vec_out.request.can_push()
        ):
            cmd = io.req.pop()
            n_bytes = cmd["n_eles"] * 4
            self.vec_in.request.push(ReadRequest(cmd["vec_addr"], n_bytes))
            self.vec_out.request.push(WriteRequest(cmd["vec_addr"], n_bytes))
            self._addend = cmd["addend"]
            self._active = True
        if self._active and self.vec_in.data.can_pop() and self.vec_out.data.can_push():
            word = int.from_bytes(self.vec_in.data.pop(), "little")
            total = (word + self._addend) & 0xFFFFFFFF
            self.vec_out.data.push(total.to_bytes(4, "little"))
            self.words_processed += 1
        if self._active and self.vec_out.done.can_pop() and io.resp.can_push():
            self.vec_out.done.pop()
            io.resp.push({})
            self._active = False

    def next_event(self, cycle: int) -> float:
        return NEVER  # purely reactive: command, words and done all arrive on channels

    #: Constant-NEVER hint — lets the compiled scheduler skip the hint call.
    wake_only = True


def vector_add_config(n_cores: int = 1, name: str = "MyAcceleratorSystem") -> AcceleratorConfig:
    """The configuration of paper Figure 3a."""
    return AcceleratorConfig(
        name=name,
        n_cores=n_cores,
        module_constructor=VectorAddCore,
        memory_channel_config=(
            ReadChannelConfig("vec_in", data_bytes=4),
            WriteChannelConfig("vec_out", data_bytes=4),
        ),
    )
