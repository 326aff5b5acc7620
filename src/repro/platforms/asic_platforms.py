"""ASIC platform definitions: the PDK targets and their SRAM macro libraries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.asic.macros import ASAP7_MACROS, SAED_MACROS, SramMacro
from repro.axi.types import AxiParams
from repro.dram.timing import DramTiming
from repro.memory.reader import ReaderTuning
from repro.memory.writer import WriterTuning
from repro.noc.tree import TreeConfig
from repro.platforms.base import HostInterface, Platform


@dataclass(frozen=True)
class AsicPlatform(Platform):
    """A Platform plus the ASIC technology information."""

    macro_library: Sequence[SramMacro] = ASAP7_MACROS
    m0_source_path: Optional[str] = None  # required for ChipKIT integration


def _asic_host() -> HostInterface:
    # On a test chip the on-die CPU *is* the host: MMIO is a bus register
    # access, there is no DMA (single memory), and polling is cheap.
    return HostInterface(
        discrete=False,
        mmio_word_cycles=2,
        dma_bytes_per_cycle=0.0,
        response_poll_cycles=8,
        command_lock_cycles=8,
    )


def Asap7Platform(clock_mhz: float = 1000.0) -> AsicPlatform:
    """ASAP7 predictive-PDK target (paper Section II-D)."""
    return AsicPlatform(
        name="asap7",
        is_asic=True,
        clock_mhz=clock_mhz,
        axi_params=AxiParams(beat_bytes=32, id_bits=4, addr_bits=32, max_burst_beats=32),
        dram_timing=DramTiming(
            n_banks=8, row_bytes=1024, col_bytes=32,
            t_rcd=14, t_rp=14, t_cl=14, t_ras=32, t_bus_turn=6,
        ),
        host=_asic_host(),
        tree_config=TreeConfig(fanout=4, interior_depth=2, slr_crossing_latency=0),
        device=None,
        memory_bytes=2 * 2**30,
        reader_tuning=ReaderTuning(max_txn_beats=32, n_axi_ids=2, max_in_flight=2,
                                   buffer_bytes=2048),
        writer_tuning=WriterTuning(max_txn_beats=32, n_axi_ids=2, max_in_flight=2,
                                   buffer_bytes=2048),
        macro_library=ASAP7_MACROS,
    )


def SynopsysPdkPlatform(clock_mhz: float = 400.0) -> AsicPlatform:
    """Synopsys academic PDK target."""
    base = Asap7Platform(clock_mhz)
    return AsicPlatform(
        name="synopsys-pdk",
        is_asic=True,
        clock_mhz=clock_mhz,
        axi_params=base.axi_params,
        dram_timing=base.dram_timing,
        host=base.host,
        tree_config=base.tree_config,
        device=None,
        memory_bytes=base.memory_bytes,
        reader_tuning=base.reader_tuning,
        writer_tuning=base.writer_tuning,
        macro_library=SAED_MACROS,
    )


def ChipKitPlatform(m0_source_path: str, clock_mhz: float = 400.0) -> AsicPlatform:
    """ChipKIT test-chip target; requires the licensed ARM M0 source path."""
    base = Asap7Platform(clock_mhz)
    return AsicPlatform(
        name="chipkit",
        is_asic=True,
        clock_mhz=clock_mhz,
        axi_params=base.axi_params,
        dram_timing=base.dram_timing,
        host=base.host,
        tree_config=base.tree_config,
        device=None,
        memory_bytes=base.memory_bytes,
        reader_tuning=base.reader_tuning,
        writer_tuning=base.writer_tuning,
        macro_library=ASAP7_MACROS,
        m0_source_path=m0_source_path,
    )

