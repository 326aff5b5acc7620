"""MachSuite GeMM accelerator (Table I: O(N^3), N=256, high parallelism).

The medium-effort Beethoven design of Section III-B: the outer and middle
loop bodies are parallelised by a configurable factor (a grid of
``unroll_i x unroll_j`` MAC lanes), identical to the loop parallelism factors
one would give Vitis HLS or Spatial.  Schedule: the MAC grid retires
``unroll_i * unroll_j`` multiply-accumulates per cycle at II=1, so the
compute phase takes ``N^3 / (unroll_i * unroll_j)`` cycles plus pipeline
fill.
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
from repro.kernels.machsuite.reference import gemm

PIPELINE_DEPTH = 12


class GemmCore(PhasedKernelCore):
    """C = A @ B over int32, streamed from/to memory."""

    _state = ()

    def __init__(self, ctx, unroll_i: int = 4, unroll_j: int = 4) -> None:
        super().__init__(ctx)
        self.unroll_i = unroll_i
        self.unroll_j = unroll_j
        self.io = self.beethoven_io(
            CommandSpec(
                "gemm",
                (
                    Field("a_addr", Address()),
                    Field("b_addr", Address()),
                    Field("c_addr", Address()),
                    Field("n", UInt(12)),
                ),
            ),
            EmptyAccelResponse(),
        )
        self.get_reader_module("mat_a")
        self.get_reader_module("mat_b")
        self.get_writer_module("mat_c")

    def kernel_resources(self) -> ResourceVector:
        lanes = self.unroll_i * self.unroll_j
        lut = 900 + 210 * lanes  # one int32 MAC lane ~ 210 LUTs
        reg = 1_200 + 180 * lanes
        return ResourceVector(clb=max(lut / 6.6, reg / 13.2), lut=lut, reg=reg)

    def compute_cycles(self, n: int) -> int:
        lanes = self.unroll_i * self.unroll_j
        return -(-(n**3) // lanes) + PIPELINE_DEPTH

    def plan(self, cmd) -> KernelPlan:
        nbytes = cmd["n"] ** 2 * 4
        return KernelPlan(
            loads=[("mat_a", cmd["a_addr"], nbytes), ("mat_b", cmd["b_addr"], nbytes)],
            stores=[("mat_c", cmd["c_addr"])],
            cmd=cmd,
        )

    def compute(self, plan, loaded):
        n = plan.cmd["n"]
        a = np.frombuffer(loaded["mat_a"], dtype=np.int32).reshape(n, n)
        b = np.frombuffer(loaded["mat_b"], dtype=np.int32).reshape(n, n)
        c = gemm(a, b)
        return {"mat_c": c.tobytes()}, self.compute_cycles(n)


def gemm_config(
    n_cores: int = 1,
    unroll_i: int = 4,
    unroll_j: int = 4,
) -> AcceleratorConfig:
    """GeMM System; on-chip A/B/C tiles declared as scratchpads so the
    memcell mapper accounts for them (working set = 3 * N^2 * 4 bytes,
    N = 256)."""

    def make(ctx):
        return GemmCore(ctx, unroll_i, unroll_j)

    depth = 256 * 256 * 4 // 64
    no_init = ScratchpadFeatures(init_via_reader=False)
    return AcceleratorConfig(
        name="Gemm",
        n_cores=n_cores,
        module_constructor=make,
        memory_channel_config=(
            ReadChannelConfig("mat_a", data_bytes=64),
            ReadChannelConfig("mat_b", data_bytes=64),
            WriteChannelConfig("mat_c", data_bytes=64),
            ScratchpadConfig("tile_a", 512, depth, features=no_init),
            ScratchpadConfig("tile_b", 512, depth, features=no_init),
            ScratchpadConfig("tile_c", 512, depth, features=no_init),
        ),
    )
