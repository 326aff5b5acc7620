"""A compute-dense stand-in core.

``SpinCore`` is the opposite of :class:`repro.baselines.delay_core.DelayCore`:
where DelayCore sleeps through its latency window (making simulation nearly
free under event skipping), SpinCore *computes* every cycle of its window —
a fixed number of integer-hash steps per tick — so every cycle of its window
is a tick the scheduler must execute.  Tests use it as the busy core that no
elision can skip, with a per-core load that differs by command arguments.

The config declares one (unused) read channel so the elaborated design has
AXI endpoints and therefore a memory tree, with SLR-crossing pipes on a
multi-die platform.
"""

from __future__ import annotations

from repro.command.packing import CommandSpec, EmptyAccelResponse, Field, UInt
from repro.core.accelerator import AcceleratorCore
from repro.core.config import AcceleratorConfig, ReadChannelConfig
from repro.fpga.device import ResourceVector
from repro.sim import NEVER


class SpinCore(AcceleratorCore):
    """Spins ``rounds`` cycles of integer hashing per command, then responds."""

    _state = ("_remaining", "_phase", "_done_pending", "jobs_done")

    def __init__(self, ctx, work_per_tick: int = 64) -> None:
        super().__init__(ctx)
        self.work_per_tick = max(int(work_per_tick), 1)
        self.io = self.beethoven_io(
            CommandSpec(
                "spin",
                (Field("rounds", UInt(24)), Field("seed", UInt(32))),
            ),
            EmptyAccelResponse(),
        )
        self._remaining = 0
        self._phase = 0
        self._done_pending = False
        self.jobs_done = 0

    def kernel_resources(self) -> ResourceVector:
        # A wide integer datapath; roughly a small ALU cluster.
        return ResourceVector(clb=120, lut=900, reg=1100)

    def tick(self, cycle: int) -> None:
        if self._done_pending:
            if self.io.resp.can_push():
                self.io.resp.push({})
                self.jobs_done += 1
                self._done_pending = False
            return
        if self._remaining > 0:
            x = self._phase
            for _ in range(self.work_per_tick):
                x = (x * 1103515245 + 12345) & 0xFFFFFFFF
                x ^= x >> 13
            self._phase = x
            self._remaining -= 1
            if self._remaining == 0:
                self._done_pending = True
            return
        if self.io.req.can_pop():
            cmd = self.io.req.pop()
            self._remaining = max(int(cmd["rounds"]), 1)
            self._phase = int(cmd["seed"]) & 0xFFFFFFFF

    def next_event(self, cycle: int) -> float:
        if self._remaining > 0 or self._done_pending:
            return cycle  # compute-dense: must be ticked every cycle
        return NEVER  # idle: woken by the next command

    def idle(self) -> bool:
        return self._remaining == 0 and not self._done_pending


def spin_config(
    n_cores: int,
    work_per_tick: int = 64,
) -> AcceleratorConfig:
    def make(ctx):
        return SpinCore(ctx, work_per_tick=work_per_tick)

    return AcceleratorConfig(
        name="Spin",
        n_cores=n_cores,
        module_constructor=make,
        memory_channel_config=(
            # Unused data path; present so the design elaborates a memory
            # tree (and with it the SLR bridges).
            ReadChannelConfig("probe", data_bytes=4),
        ),
    )
