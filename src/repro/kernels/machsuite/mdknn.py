"""MachSuite MD-KNN accelerator (Table I: N=1024 atoms, K=32, high parallelism).

Lennard-Jones force accumulation over a precomputed k-nearest-neighbour
list.  The pipeline evaluates ``unroll`` atom-neighbour interactions per
cycle (each interaction is a fixed-latency arithmetic pipeline at II=1), so
the compute phase takes ``N*K / unroll`` cycles plus fill.
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
from repro.kernels.machsuite.reference import md_knn

PIPELINE_DEPTH = 24  # deep FP pipeline: rsqrt chain


class MdKnnCore(PhasedKernelCore):
    """Forces from positions + neighbour lists (float32)."""

    _state = ()

    def __init__(self, ctx, unroll: int = 4) -> None:
        super().__init__(ctx)
        self.unroll = unroll
        self.io = self.beethoven_io(
            CommandSpec(
                "md_knn",
                (
                    Field("pos_addr", Address()),
                    Field("nl_addr", Address()),
                    Field("force_addr", Address()),
                    Field("n_atoms", UInt(16)),
                    Field("k", UInt(8)),
                ),
            ),
            EmptyAccelResponse(),
        )
        self.get_reader_module("positions")
        self.get_reader_module("neighbors")
        self.get_writer_module("forces")

    def kernel_resources(self) -> ResourceVector:
        lut = 2_600 + 1_900 * self.unroll  # FP32 mul/add/div lane
        reg = 3_400 + 2_200 * self.unroll
        return ResourceVector(clb=max(lut / 6.6, reg / 13.2), lut=lut, reg=reg)

    def compute_cycles(self, n_atoms: int, k: int) -> int:
        return -(-(n_atoms * k) // self.unroll) + PIPELINE_DEPTH

    def plan(self, cmd) -> KernelPlan:
        n, k = cmd["n_atoms"], cmd["k"]
        return KernelPlan(
            loads=[
                ("positions", cmd["pos_addr"], n * 12),
                ("neighbors", cmd["nl_addr"], n * k * 4),
            ],
            stores=[("forces", cmd["force_addr"])],
            cmd=cmd,
        )

    def compute(self, plan, loaded):
        n, k = plan.cmd["n_atoms"], plan.cmd["k"]
        pos = np.frombuffer(loaded["positions"], dtype=np.float32).reshape(n, 3)
        nl = np.frombuffer(loaded["neighbors"], dtype=np.int32).reshape(n, k)
        forces = md_knn(pos, nl)
        return {"forces": forces.tobytes()}, self.compute_cycles(n, k)


def mdknn_config(n_cores: int = 1, unroll: int = 4) -> AcceleratorConfig:
    """MD-KNN System; the positions and force accumulators of 1024 atoms
    live on chip while the neighbour list streams (it is only read once)."""

    def make(ctx):
        return MdKnnCore(ctx, unroll)

    no_init = ScratchpadFeatures(init_via_reader=False)
    return AcceleratorConfig(
        name="MdKnn",
        n_cores=n_cores,
        module_constructor=make,
        memory_channel_config=(
            ReadChannelConfig("positions", data_bytes=4),
            ReadChannelConfig("neighbors", data_bytes=64),
            WriteChannelConfig("forces", data_bytes=4),
            ScratchpadConfig("pos_sp", 96, 1024, features=no_init),
            ScratchpadConfig("force_sp", 96, 1024, features=no_init),
        ),
    )
