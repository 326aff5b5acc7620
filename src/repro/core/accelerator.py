"""The ``AcceleratorCore`` base class (paper Figure 2).

Users subclass this, declare IOs with :meth:`beethoven_io`, fetch their
configured Readers/Writers/Scratchpads by name, and implement per-cycle
behaviour in :meth:`tick`.  Everything else — the command plumbing, the
memory network, floorplanning, host bindings — is generated around the core
by the elaborator.
"""

from __future__ import annotations

from typing import List, Optional

from repro.command.packing import CommandSpec, ResponseSpec
from repro.command.router import BeethovenIO
from repro.core.context import CoreContext
from repro.fpga.device import ResourceVector
from repro.memory.reader import Reader
from repro.memory.scratchpad import Scratchpad
from repro.memory.writer import Writer
from repro.sim import Component


class AcceleratorCore(Component):
    """Base class for user cores.

    Subclasses must call ``super().__init__(ctx)`` and then declare their IO
    and fetch primitives in their own ``__init__``, mirroring the paper's
    Chisel idiom::

        class MyAccelerator(AcceleratorCore):
            def __init__(self, ctx):
                super().__init__(ctx)
                self.io = self.beethoven_io(
                    CommandSpec("my_accel", (
                        Field("addend", UInt(32)),
                        Field("vec_addr", Address()),
                        Field("n_eles", UInt(20)),
                    )),
                    EmptyAccelResponse(),
                )
                self.vec_in = self.get_reader_module("vec_in")
                self.vec_out = self.get_writer_module("vec_out")

            def tick(self, cycle): ...
    """

    _state = ()

    def __init__(self, ctx: CoreContext) -> None:
        super().__init__(f"{ctx.system_name}.core{ctx.core_id}")
        self.ctx = ctx

    # -- declaration API -------------------------------------------------------
    def beethoven_io(self, command: CommandSpec, response: ResponseSpec) -> BeethovenIO:
        """Declare a named command/response interface for this core."""
        return self.ctx.beethoven_io(command, response)

    def get_reader_module(self, name: str, idx: int = 0) -> Reader:
        return self.ctx.get_reader_module(name, idx)

    def get_writer_module(self, name: str, idx: int = 0) -> Writer:
        return self.ctx.get_writer_module(name, idx)

    def get_scratchpad(self, name: str) -> Scratchpad:
        return self.ctx.get_scratchpad(name)

    def get_intra_core_mem_ins(self, name: str):
        return self.ctx.get_intra_core_mem_ins(name)

    def get_intra_core_mem_out(self, name: str):
        return self.ctx.get_intra_core_mem_out(name)

    # -- properties ----------------------------------------------------------
    @property
    def core_id(self) -> int:
        return self.ctx.core_id

    @property
    def ios(self) -> List[BeethovenIO]:
        return self.ctx.ios

    # -- costing hooks ----------------------------------------------------------
    def kernel_resources(self) -> Optional[ResourceVector]:
        """Per-core *kernel logic* estimate (excluding Beethoven primitives).

        Defaults to the system configuration's ``kernel_resources``;
        subclasses may override with a parameter-derived estimate.
        """
        return self.ctx.config.kernel_resources

    # -- behaviour ---------------------------------------------------------------
    def tick(self, cycle: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError("accelerator cores must implement tick()")

    def wake_channels(self):
        """Every channel a core's tick can legally touch, from the context.

        Covers the declared command IOs, Reader/Writer queues, scratchpad
        ports, and intra-core links, so a hinted core (one overriding
        :meth:`~repro.sim.Component.next_event`) is woken by any traffic on
        its primitives without naming them individually.  Direct reads of an
        intra-core memory are covered separately by its access hook.
        """
        ctx = self.ctx
        chans = []
        for io in ctx.ios:
            chans += [io.req, io.resp]
        for readers in ctx.readers.values():
            for r in readers:
                chans += [r.request, r.data]
        for writers in ctx.writers.values():
            for w in writers:
                chans += [w.request, w.data, w.done]
        for sp in ctx.scratchpads.values():
            chans += [sp.init, sp.init_done]
            for port in sp.ports:
                chans += [port.req, port.resp]
        for imem in ctx.intra_in.values():
            chans += [link.chan for link in imem.links]
        for links in ctx.intra_out.values():
            chans += [link.chan for link in links]
        return chans
