"""Platform abstraction (Section II-B, Platform Development).

A platform declares the three things the paper lists as the minimum for a new
target — ASIC/FPGA choice, external memory space and protocol parameters, and
host-communication properties — plus the optional performance knobs (SLR
topology, Reader/Writer tuning defaults, network elaboration limits).  The
elaborator consumes only this interface, which is what makes user designs
retargetable by swapping the platform object (paper Figure 3a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.axi.types import AxiParams
from repro.dram.timing import DramTiming
from repro.fpga.device import FpgaDevice
from repro.memory.master import MasterTuning
from repro.noc.tree import TreeConfig


@dataclass(frozen=True)
class HostInterface:
    """Host-accelerator communication properties."""

    discrete: bool  # separate address spaces (PCIe card) vs shared (embedded)
    mmio_word_cycles: int  # fabric cycles one host MMIO word access occupies
    dma_bytes_per_cycle: float  # host<->device copy bandwidth (discrete only)
    response_poll_cycles: int  # server polling interval for responses
    command_lock_cycles: int  # runtime-server lock + bookkeeping per command


@dataclass(frozen=True)
class Platform:
    """Everything Beethoven needs to target a device."""

    name: str
    is_asic: bool
    clock_mhz: float
    axi_params: AxiParams
    dram_timing: DramTiming
    host: HostInterface
    tree_config: TreeConfig = field(default_factory=TreeConfig)
    device: Optional[FpgaDevice] = None  # None for ASIC targets
    memory_bytes: int = 16 * 2**30  # device memory, addressed from 0
    master_tuning: MasterTuning = field(default_factory=MasterTuning)  # Readers and Writers

    @property
    def addr_bits(self) -> int:
        return self.axi_params.addr_bits

    @property
    def n_slrs(self) -> int:
        return self.device.n_slrs if self.device is not None else 1

    @property
    def clock_ns(self) -> float:
        return 1_000.0 / self.clock_mhz

    def cycles_to_seconds(self, cycles: int) -> float:
        return cycles * self.clock_ns * 1e-9

    def command_latency_for(self, slr: int) -> int:
        """Command-network latency from the host interface to ``slr``: 2
        cycles, plus 2 per SLR crossing."""
        host_slr = self.device.host_interface_slr if self.device else 0
        return 2 + 2 * abs(slr - host_slr)


def kernel_mode(platform: Platform) -> Platform:
    """The paper's future-work runtime: a kernel-module server.

    Moving the management runtime from a userspace server into the kernel
    removes the userspace lock round-trip, lets responses be collected from
    the interrupt path instead of timed polling, and allows the command
    words to be posted as one write-combined MMIO burst instead of six
    independent uncached writes.  Modelled as a 4x cheaper lock, 3x tighter
    response collection and 3x cheaper per-word MMIO cost; the dispatch
    serialisation itself (one command at a time) remains.
    """
    from dataclasses import replace

    host = replace(
        platform.host,
        command_lock_cycles=max(platform.host.command_lock_cycles // 4, 1),
        response_poll_cycles=max(platform.host.response_poll_cycles // 3, 1),
        mmio_word_cycles=max(platform.host.mmio_word_cycles // 3, 1),
    )
    return replace(platform, host=host)
