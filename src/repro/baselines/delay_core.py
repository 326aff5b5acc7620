"""A fixed-latency stand-in core for host-contention studies.

``DelayCore`` accepts a command, stays busy for a configured number of
cycles, then responds — the minimal core that still exercises the *entire*
host path (runtime server lock, MMIO words, command router, response
polling).  The Figure 6 ideal-vs-measured gap is a host-path property, so
measuring it with DelayCores at each kernel's latency is exact while keeping
multi-core simulations tractable for long kernels.
"""

from __future__ import annotations

from typing import Optional

from repro.command.packing import CommandSpec, EmptyAccelResponse, Field, UInt
from repro.core.accelerator import AcceleratorCore
from repro.core.config import AcceleratorConfig
from repro.sim import NEVER


class DelayCore(AcceleratorCore):
    """Busy for ``latency_cycles`` per command, then responds.

    The busy window is tracked as an absolute cycle (``_respond_at``) rather
    than a decrementing counter so that the core is a genuine no-op while it
    waits — which lets it advertise the wake-up cycle via ``next_event`` and
    makes long-latency kernels cheap under event-skipping simulation.
    """

    _state = ("_respond_at", "_responding", "jobs_done")

    def __init__(self, ctx, latency_cycles: int, io_name: str = "run") -> None:
        super().__init__(ctx)
        self.latency_cycles = max(int(latency_cycles), 1)
        self.io = self.beethoven_io(
            CommandSpec(io_name, (Field("job", UInt(32)),)),
            EmptyAccelResponse(),
        )
        self._respond_at: Optional[int] = None
        self._responding = False
        self.jobs_done = 0

    def tick(self, cycle: int) -> None:
        if self._responding:
            if self.io.resp.can_push():
                self.io.resp.push({})
                self.jobs_done += 1
                self._responding = False
            return
        if self._respond_at is not None:
            if cycle >= self._respond_at:
                self._respond_at = None
                self._responding = True
            return
        if self.io.req.can_pop():
            self.io.req.pop()
            self._respond_at = cycle + self.latency_cycles

    def next_event(self, cycle: int) -> float:
        if self._responding:
            return cycle
        if self._respond_at is not None:
            return max(cycle, self._respond_at)
        if self.io.req.can_pop():
            return cycle  # a queued command: nothing else re-wakes us for it
        return NEVER  # waiting for a command to be pushed

    def wake_edges(self):
        # Only an arriving command wakes an idle core; a response blocked on
        # a full ``io.resp`` already keeps the hint at "every cycle".
        return [self.io.req], []

    def idle(self) -> bool:
        return self._respond_at is None and not self._responding


def delay_config(
    n_cores: int,
    latency_cycles: int,
    name: str = "Delay",
    io_name: str = "run",
) -> AcceleratorConfig:
    """``io_name`` names the command IO — i.e. the *kernel class* the serving
    layer routes on — so heterogeneous pools ("gemm" cores vs "attn" cores)
    can be modelled with delay cores of different latencies."""

    def make(ctx):
        return DelayCore(ctx, latency_cycles, io_name=io_name)

    return AcceleratorConfig(name=name, n_cores=n_cores, module_constructor=make)
