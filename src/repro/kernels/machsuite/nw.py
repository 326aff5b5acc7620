"""MachSuite NW accelerator (Table I: O(N^2) string alignment, no parallelism).

Needleman-Wunsch has loop-carried dependencies that defeat HLS unroll
pragmas; the paper's Beethoven implementation still reached 2x the baselines
with a *single* core because a hand-pipelined systolic cell evaluates one DP
cell per cycle (II=1) whereas the HLS schedule is stuck at a longer II on the
anti-diagonal recurrence.  Schedule: (N+1)^2 DP cells at II=1, plus a
traceback phase of at most 2N cycles.
"""

from __future__ import annotations

from repro.command.packing import Address, CommandSpec, Field, ResponseSpec, UInt
from repro.core.config import (
    AcceleratorConfig,
    ReadChannelConfig,
    ScratchpadConfig,
    ScratchpadFeatures,
    WriteChannelConfig,
)
from repro.fpga.device import ResourceVector
from repro.kernels.machsuite.phased import KernelPlan, PhasedKernelCore
from repro.kernels.machsuite.reference import nw

PIPELINE_DEPTH = 6


class NwCore(PhasedKernelCore):
    """Aligns two byte strings; emits padded aligned sequences + score."""

    _snapshot_exclude = ("io",)  # wiring, rebuilt by elaboration

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.io = self.beethoven_io(
            CommandSpec(
                "nw",
                (
                    Field("seq_a_addr", Address()),
                    Field("seq_b_addr", Address()),
                    Field("out_addr", Address()),
                    Field("n", UInt(12)),
                ),
            ),
            ResponseSpec("nw_result", (Field("score", UInt(32)),)),
        )
        self.get_reader_module("seq_a")
        self.get_reader_module("seq_b")
        self.get_writer_module("aligned")

    def kernel_resources(self) -> ResourceVector:
        # One DP cell datapath + score SRAM row buffers + traceback logic.
        return ResourceVector(clb=520, lut=3_400, reg=2_900)

    def compute_cycles(self, n: int) -> int:
        return (n + 1) * (n + 1) + 2 * n + PIPELINE_DEPTH

    def plan(self, cmd) -> KernelPlan:
        n = cmd["n"]

        def compute(loaded):
            score, out_a, out_b = nw(loaded["seq_a"], loaded["seq_b"])
            # Fixed-size output region: each aligned string padded to 2N.
            blob = out_a.ljust(2 * n, b"-") + out_b.ljust(2 * n, b"-")
            plan_resp = {"score": score & 0xFFFFFFFF}
            self._plan.response.update(plan_resp)
            return {"aligned": blob}, self.compute_cycles(n)

        return KernelPlan(
            loads=[("seq_a", cmd["seq_a_addr"], n), ("seq_b", cmd["seq_b_addr"], n)],
            stores=[("aligned", cmd["out_addr"])],
            compute=compute,
        )


def nw_config(n_cores: int = 1, n: int = 256, name: str = "Nw") -> AcceleratorConfig:
    """NW System; the traceback-pointer matrix (2 bits per DP cell) and the
    score wavefront buffers live on chip."""
    no_init = ScratchpadFeatures(init_via_reader=False)
    cells = (n + 1) * (n + 1)
    return AcceleratorConfig(
        name=name,
        n_cores=n_cores,
        module_constructor=NwCore,
        memory_channel_config=(
            ReadChannelConfig("seq_a", data_bytes=16),
            ReadChannelConfig("seq_b", data_bytes=16),
            WriteChannelConfig("aligned", data_bytes=16),
            # MachSuite's nw keeps the whole DP score matrix on chip for the
            # traceback, plus a 2-bit direction matrix.
            ScratchpadConfig("score_matrix", 32, cells, features=no_init),
            ScratchpadConfig("ptr_matrix", 8, max(cells // 4, 1), features=no_init),
        ),
    )
