"""Memory-copy microbenchmark core (paper Section III-A).

The Beethoven implementation is exactly the paper's: a Reader and a Writer at
full bus width wired back-to-back (23 lines of Chisel in the original).  The
TLP and burst-length knobs of the underlying primitives give the
``Beethoven`` / ``Beethoven No-TLP`` / ``Beethoven 16-beat`` variants of
Figures 4 and 5.
"""

from __future__ import annotations

from repro.command.packing import Address, CommandSpec, EmptyAccelResponse, Field, UInt
from repro.core.accelerator import AcceleratorCore
from repro.core.config import AcceleratorConfig, ReadChannelConfig, WriteChannelConfig
from repro.fpga.device import ResourceVector
from repro.memory.master import MasterTuning
from repro.memory.types import ReadRequest, WriteRequest


class MemcpyCore(AcceleratorCore):
    """Copy ``len_bytes`` from ``src`` to ``dst`` at full bus width."""

    _state = ("_active", "bytes_copied")

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.io = self.beethoven_io(
            CommandSpec(
                "memcpy",
                (
                    Field("src", Address()),
                    Field("dst", Address()),
                    Field("len_bytes", UInt(32)),
                ),
            ),
            EmptyAccelResponse(),
        )
        self.src_reader = self.get_reader_module("copy_in")
        self.dst_writer = self.get_writer_module("copy_out")
        self._active = False
        self.bytes_copied = 0

    def kernel_resources(self) -> ResourceVector:
        return ResourceVector(clb=15, lut=90, reg=110)

    def tick(self, cycle: int) -> None:
        io = self.io
        if (
            not self._active
            and io.req.can_pop()
            and self.src_reader.request.can_push()
            and self.dst_writer.request.can_push()
        ):
            cmd = io.req.pop()
            self.src_reader.request.push(ReadRequest(cmd["src"], cmd["len_bytes"]))
            self.dst_writer.request.push(WriteRequest(cmd["dst"], cmd["len_bytes"]))
            self._active = True
        if self._active and self.src_reader.data.can_pop() and self.dst_writer.data.can_push():
            chunk = self.src_reader.data.pop()
            self.dst_writer.data.push(chunk)
            self.bytes_copied += len(chunk)
        if self._active and self.dst_writer.done.can_pop() and io.resp.can_push():
            self.dst_writer.done.pop()
            io.resp.push({})
            self._active = False

    # Purely reactive: command, data and done all arrive on channels.
    wake_only = True


def memcpy_config(
    n_cores: int = 1,
    tlp: bool = True,
    burst_beats: int = 64,
    name: str = "Memcpy",
    data_bytes: int = 64,
) -> AcceleratorConfig:
    """Beethoven memcpy System.

    ``tlp=False`` gives the single-AXI-ID variant; ``burst_beats=16``
    reproduces the short-burst ablation the paper ran against HLS.
    """
    tuning = MasterTuning(
        max_txn_beats=burst_beats,
        n_axi_ids=4 if tlp else 1,
        max_in_flight=8,
        buffer_bytes=8 * 4096,
    )
    return AcceleratorConfig(
        name=name,
        n_cores=n_cores,
        module_constructor=MemcpyCore,
        memory_channel_config=(
            ReadChannelConfig("copy_in", data_bytes=data_bytes, tuning=tuning),
            WriteChannelConfig("copy_out", data_bytes=data_bytes, tuning=tuning),
        ),
    )
