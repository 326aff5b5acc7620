"""MachSuite Stencil2D and Stencil3D accelerators (Table I).

Stencil2D (N=256, medium parallelism): a 3x3 filter with coefficients loaded
from memory.  The low-effort Beethoven pipeline retires ``unroll`` output
cells per cycle using a row-buffered window (II=1).

Stencil3D (N=32, high parallelism): a 7-point stencil with immediate
coefficients; ``unroll`` output cells per cycle from plane buffers.
"""

from __future__ import annotations

import numpy as np

from repro.command.packing import Address, CommandSpec, EmptyAccelResponse, Field, UInt
from repro.core.config import (
    AcceleratorConfig,
    ReadChannelConfig,
    ScratchpadConfig,
    ScratchpadFeatures,
    WriteChannelConfig,
)
from repro.fpga.device import ResourceVector
from repro.kernels.machsuite.phased import KernelPlan, PhasedKernelCore
from repro.kernels.machsuite.reference import stencil2d, stencil3d

PIPELINE_DEPTH = 10


class Stencil2dCore(PhasedKernelCore):
    """out = conv3x3(grid, coeffs) with pass-through borders."""

    _state = ()

    def __init__(self, ctx, unroll: int = 2) -> None:
        super().__init__(ctx)
        self.unroll = unroll
        self.io = self.beethoven_io(
            CommandSpec(
                "stencil2d",
                (
                    Field("grid_addr", Address()),
                    Field("coeff_addr", Address()),
                    Field("out_addr", Address()),
                    Field("n", UInt(12)),
                ),
            ),
            EmptyAccelResponse(),
        )
        self.get_reader_module("grid")
        self.get_reader_module("coeffs")
        self.get_writer_module("result")

    def kernel_resources(self) -> ResourceVector:
        lut = 1_400 + 350 * self.unroll  # 9-tap MAC window per lane
        reg = 2_000 + 300 * self.unroll
        return ResourceVector(clb=max(lut / 6.6, reg / 13.2), lut=lut, reg=reg)

    def compute_cycles(self, n: int) -> int:
        cells = (n - 2) * (n - 2)
        return -(-cells // self.unroll) + PIPELINE_DEPTH

    def plan(self, cmd) -> KernelPlan:
        n = cmd["n"]
        return KernelPlan(
            loads=[
                ("grid", cmd["grid_addr"], n * n * 4),
                ("coeffs", cmd["coeff_addr"], 36),
            ],
            stores=[("result", cmd["out_addr"])],
            cmd=cmd,
        )

    def compute(self, plan, loaded):
        n = plan.cmd["n"]
        grid = np.frombuffer(loaded["grid"], dtype=np.int32).reshape(n, n)
        coeffs = np.frombuffer(loaded["coeffs"], dtype=np.int32).reshape(3, 3)
        out = stencil2d(grid, coeffs)
        return {"result": out.tobytes()}, self.compute_cycles(n)


class Stencil3dCore(PhasedKernelCore):
    """7-point stencil: out = c0*x + c1*sum(neighbours)."""

    _state = ()

    def __init__(self, ctx, unroll: int = 4) -> None:
        super().__init__(ctx)
        self.unroll = unroll
        self.io = self.beethoven_io(
            CommandSpec(
                "stencil3d",
                (
                    Field("grid_addr", Address()),
                    Field("out_addr", Address()),
                    Field("n", UInt(8)),
                    Field("c0", UInt(16)),
                    Field("c1", UInt(16)),
                ),
            ),
            EmptyAccelResponse(),
        )
        self.get_reader_module("grid")
        self.get_writer_module("result")

    def kernel_resources(self) -> ResourceVector:
        lut = 1_800 + 420 * self.unroll
        reg = 2_600 + 380 * self.unroll
        return ResourceVector(clb=max(lut / 6.6, reg / 13.2), lut=lut, reg=reg)

    def compute_cycles(self, n: int) -> int:
        cells = (n - 2) ** 3
        return -(-cells // self.unroll) + PIPELINE_DEPTH

    def plan(self, cmd) -> KernelPlan:
        return KernelPlan(
            loads=[("grid", cmd["grid_addr"], cmd["n"] ** 3 * 4)],
            stores=[("result", cmd["out_addr"])],
            cmd=cmd,
        )

    def compute(self, plan, loaded):
        n, cmd = plan.cmd["n"], plan.cmd
        grid = np.frombuffer(loaded["grid"], dtype=np.int32).reshape(n, n, n)
        out = stencil3d(grid, cmd["c0"], cmd["c1"])
        return {"result": out.tobytes()}, self.compute_cycles(n)


def stencil2d_config(n_cores: int = 1) -> AcceleratorConfig:
    """Stencil2D System (unroll 2); both 256^2 grids are buffered on chip."""

    def make(ctx):
        return Stencil2dCore(ctx, 2)

    depth = 256 * 256 * 4 // 64
    no_init = ScratchpadFeatures(init_via_reader=False)
    return AcceleratorConfig(
        name="Stencil2d",
        n_cores=n_cores,
        module_constructor=make,
        memory_channel_config=(
            ReadChannelConfig("grid", data_bytes=64),
            ReadChannelConfig("coeffs", data_bytes=4),
            WriteChannelConfig("result", data_bytes=64),
            ScratchpadConfig("grid_in", 512, depth, features=no_init),
            ScratchpadConfig("grid_out", 512, depth, features=no_init),
        ),
    )


def stencil3d_config(n_cores: int = 1) -> AcceleratorConfig:
    """Stencil3D System (unroll 4); both 32^3 grids are buffered on chip."""

    def make(ctx):
        return Stencil3dCore(ctx, 4)

    depth = 32 * 32 * 32 * 4 // 64
    no_init = ScratchpadFeatures(init_via_reader=False)
    return AcceleratorConfig(
        name="Stencil3d",
        n_cores=n_cores,
        module_constructor=make,
        memory_channel_config=(
            ReadChannelConfig("grid", data_bytes=64),
            WriteChannelConfig("result", data_bytes=64),
            ScratchpadConfig("vol_in", 512, depth, features=no_init),
            ScratchpadConfig("vol_out", 512, depth, features=no_init),
        ),
    )
