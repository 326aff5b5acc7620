"""Concrete FPGA platforms: AWS F1 (discrete), Kria/Zynq (embedded), and the
simulation platform (F1 fabric with a free host)."""

from __future__ import annotations

import dataclasses

from repro.axi.types import AxiParams
from repro.dram.timing import DDR4_AWS_F1, LPDDR4_KRIA
from repro.fpga.device import make_kria_k26, make_multi_die, make_vu9p_aws_f1
from repro.memory.reader import ReaderTuning
from repro.memory.writer import WriterTuning
from repro.noc.tree import TreeConfig
from repro.platforms.base import HostInterface, Platform


def AWSF1Platform(clock_mhz: float = 250.0) -> Platform:
    """The AWS F1 / Alveo U200 target used throughout the paper's evaluation.

    Discrete PCIe-attached card: MMIO accesses cross PCIe (~120 ns each at
    250 MHz fabric), DMA runs at shell bandwidth, and the 3-SLR VU9P needs
    SLR-aware networks.
    """
    return Platform(
        name="aws-f1",
        is_asic=False,
        clock_mhz=clock_mhz,
        axi_params=AxiParams(beat_bytes=64, id_bits=6, addr_bits=34, max_burst_beats=64),
        dram_timing=DDR4_AWS_F1,
        host=HostInterface(
            discrete=True,
            mmio_word_cycles=30,
            dma_bytes_per_cycle=32.0,
            response_poll_cycles=60,
            command_lock_cycles=50,
        ),
        tree_config=TreeConfig(fanout=8, interior_depth=4, slr_crossing_latency=4),
        device=make_vu9p_aws_f1(),
        memory_bytes=16 * 2**30,
        reader_tuning=ReaderTuning(max_txn_beats=64, n_axi_ids=4, max_in_flight=4),
        writer_tuning=WriterTuning(max_txn_beats=64, n_axi_ids=4, max_in_flight=4),
    )


def multi_die_platform(
    n_slrs: int = 4,
    slr_crossing_latency: int = 8,
    clock_mhz: float = 250.0,
) -> Platform:
    """An F1-style discrete platform on a synthetic ``n_slrs``-die device.

    The deeper SLR-crossing pipelining (default 8 cycles vs F1's 4) is an
    honest platform parameter — very large multi-die parts need it to close
    timing — and it doubles as the sharded simulator's lookahead window: the
    conservative slice width equals the minimum bridge latency, so deeper
    crossings mean fewer synchronization barriers per simulated cycle.
    """
    base = AWSF1Platform(clock_mhz=clock_mhz)
    return dataclasses.replace(
        base,
        name=f"multi-die-{n_slrs}",
        tree_config=dataclasses.replace(
            base.tree_config, slr_crossing_latency=slr_crossing_latency
        ),
        device=make_multi_die(n_slrs),
    )


def KriaPlatform(clock_mhz: float = 100.0) -> Platform:
    """The Kria KV260 embedded target (paper Figure 3a).

    Embedded: the FPGA shares the host address space (hugepage-backed
    physical allocations, AXI-ACE-coherent), MMIO is an on-die register
    access, and the single-die device needs no SLR machinery.
    """
    return Platform(
        name="kria",
        is_asic=False,
        clock_mhz=clock_mhz,
        axi_params=AxiParams(beat_bytes=16, id_bits=4, addr_bits=40, max_burst_beats=64),
        dram_timing=LPDDR4_KRIA,
        host=HostInterface(
            discrete=False,
            mmio_word_cycles=4,
            dma_bytes_per_cycle=0.0,  # no DMA needed: shared address space
            response_poll_cycles=12,
            command_lock_cycles=20,
        ),
        tree_config=TreeConfig(fanout=6, interior_depth=2, slr_crossing_latency=0),
        device=make_kria_k26(),
        memory_bytes=4 * 2**30,
        reader_tuning=ReaderTuning(max_txn_beats=32, n_axi_ids=2, max_in_flight=2,
                                   buffer_bytes=2 * 4096),
        writer_tuning=WriterTuning(max_txn_beats=32, n_axi_ids=2, max_in_flight=2,
                                   buffer_bytes=2 * 4096),
    )


def SimulationPlatform(clock_mhz: float = 250.0) -> Platform:
    """A debugging platform: AWS F1 fabric with a free host.

    Mirrors the paper's Verilator/VCS + DRAMsim3 simulation platform: the
    memory model is the full DRAM simulator, but host interactions cost
    (almost) nothing, which makes functional unit tests fast and focused.
    """
    f1 = AWSF1Platform(clock_mhz)
    return Platform(
        name="simulation",
        is_asic=False,
        clock_mhz=clock_mhz,
        axi_params=f1.axi_params,
        dram_timing=f1.dram_timing,
        host=HostInterface(
            discrete=True,
            mmio_word_cycles=1,
            dma_bytes_per_cycle=64.0,
            response_poll_cycles=4,
            command_lock_cycles=2,
        ),
        tree_config=f1.tree_config,
        device=f1.device,
        memory_bytes=f1.memory_bytes,
        reader_tuning=f1.reader_tuning,
        writer_tuning=f1.writer_tuning,
    )
