"""Platform definitions and cross-platform retargeting behaviour."""

import numpy as np
import pytest

from repro.core import BeethovenBuild
from repro.kernels.memcpy import memcpy_config
from repro.kernels.vecadd import vector_add_config
from repro.platforms import (
    Asap7Platform,
    AWSF1Platform,
    ChipKitPlatform,
    KriaPlatform,
    SimulationPlatform,
    SynopsysPdkPlatform,
    kernel_mode,
)
from repro.runtime import FpgaHandle


def test_platform_clock_helpers():
    f1 = AWSF1Platform()
    assert f1.clock_ns == pytest.approx(4.0)
    assert f1.cycles_to_seconds(250_000_000) == pytest.approx(1.0)


def test_command_latency_scales_with_slr_distance():
    f1 = AWSF1Platform()
    assert f1.command_latency_for(0) < f1.command_latency_for(2)


def test_kria_is_embedded_and_narrow():
    kria = KriaPlatform()
    assert not kria.host.discrete
    assert kria.axi_params.beat_bytes == 16
    assert kria.n_slrs == 1


def test_asic_platforms_have_no_device():
    for platform in (Asap7Platform(), SynopsysPdkPlatform()):
        assert platform.is_asic
        assert platform.device is None
        assert platform.n_slrs == 1


def test_chipkit_platform_carries_m0_path(tmp_path):
    platform = ChipKitPlatform(m0_source_path=str(tmp_path))
    assert platform.m0_source_path == str(tmp_path)


def test_kria_memcpy_end_to_end():
    """The same memcpy core retargets to the embedded platform (16B beats,
    shared address space) untouched — only the platform argument changes."""
    build = BeethovenBuild(
        memcpy_config(n_cores=1, burst_beats=32, data_bytes=16), KriaPlatform()
    )
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(8192), handle.malloc(8192)
    payload = bytes(np.random.default_rng(0).integers(0, 256, 8192, dtype=np.uint8))
    src.write(payload)  # embedded: write-through, no DMA
    handle.call(
        "Memcpy", "memcpy", 0,
        src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=8192,
    ).get()
    assert dst.read() == payload


def test_a3_runs_on_asap7_with_its_burst_cap():
    """ASAP7 caps bursts at 32 beats; a scratchpad's init Reader issues the
    platform's bursts like every channel Reader does."""
    from repro.kernels.attention.table3 import run_beethoven_a3

    result = run_beethoven_a3(
        n_cores=1, queries_per_core=2, dim=32, n_keys=64, platform=Asap7Platform()
    )
    assert result.verified
    assert result.cycles == 387


def test_every_fpga_platform_elaborates_vecadd():
    for platform in (AWSF1Platform(), KriaPlatform(), SimulationPlatform()):
        build = BeethovenBuild(vector_add_config(1), platform)
        assert build.design.n_memory_interfaces == 2


def test_kernel_mode_is_strictly_cheaper():
    base = AWSF1Platform()
    km = kernel_mode(base)
    from repro.kernels.machsuite.fig6 import dispatch_cost_cycles

    assert dispatch_cost_cycles(km) < dispatch_cost_cycles(base)
