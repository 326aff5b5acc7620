"""Tests for the host runtime: allocators, server serialisation, contention."""

import pytest

from repro.core import BeethovenBuild
from repro.baselines.delay_core import delay_config
from repro.kernels.machsuite.fig6 import (
    analytic_measured,
    dispatch_cost_cycles,
    simulate_measured,
)
from repro.platforms import AWSF1Platform, SimulationPlatform
from repro.runtime import (
    AllocationError,
    EmbeddedAllocator,
    FirstFitAllocator,
    FpgaHandle,
    HUGEPAGE_BYTES,
)


# ----------------------------------------------------------------- allocator
def test_first_fit_alignment():
    alloc = FirstFitAllocator(0, 1 << 20, alignment=64)
    a = alloc.malloc(10)
    b = alloc.malloc(10)
    assert b - a == 64


def test_free_coalescing():
    alloc = FirstFitAllocator(0, 4096, alignment=64)
    ptrs = [alloc.malloc(1024) for _ in range(4)]
    with pytest.raises(AllocationError):
        alloc.malloc(64)
    for p in ptrs:
        alloc.free(p)
    assert alloc.free_bytes == 4096
    assert alloc.malloc(4096) == 0  # coalesced back to one block


def test_double_free_rejected():
    alloc = FirstFitAllocator(0, 4096)
    p = alloc.malloc(64)
    alloc.free(p)
    with pytest.raises(AllocationError):
        alloc.free(p)


def test_bad_sizes_rejected():
    alloc = FirstFitAllocator(0, 4096)
    with pytest.raises(AllocationError):
        alloc.malloc(0)
    with pytest.raises(AllocationError):
        alloc.malloc(8192)


def test_embedded_allocator_hugepage_alignment():
    alloc = EmbeddedAllocator(0, 64 * HUGEPAGE_BYTES)
    a = alloc.malloc(100)
    b = alloc.malloc(100)
    assert a % HUGEPAGE_BYTES == 0
    assert b % HUGEPAGE_BYTES == 0
    assert alloc.physical_address_of(a) == a
    with pytest.raises(AllocationError):
        alloc.physical_address_of(a + 1)


# -------------------------------------------------------------------- server
def test_server_serialises_commands():
    platform = SimulationPlatform()
    build = BeethovenBuild(delay_config(4, latency_cycles=10), platform)
    handle = FpgaHandle(build.design)
    futures = [handle.call("Delay", "run", core, job=0) for core in range(4)]
    for fut in futures:
        fut.get()
    server = handle.server
    assert server.commands_sent == 4
    assert server.responses_received == 4
    assert server.idle()


def test_a_refused_call_leaves_no_call_behind():
    """Packing validates before the call is registered: a command the
    layout refuses leaves no uid, no future and no queued word, so the
    next call takes the uid it would have had."""
    build = BeethovenBuild(delay_config(2, latency_cycles=10), SimulationPlatform())
    handle = FpgaHandle(build.design)
    for bad in ({"job": 2**40}, {}, {"job": 1, "extra": 2}):
        with pytest.raises(ValueError):
            handle.call("Delay", "run", 0, **bad)
    assert handle._calls == {} and handle._call_uid == 0
    assert handle.server.idle()
    fut = handle.call("Delay", "run", 1, job=7)
    assert list(handle._calls) == [1] and handle._calls[1].fut is fut
    fut.get()
    assert handle.server.commands_sent == 1


def test_call_rejects_unknown_names_and_core_indices():
    build = BeethovenBuild(delay_config(2, latency_cycles=10), SimulationPlatform())
    handle = FpgaHandle(build.design)
    with pytest.raises(KeyError, match="no system"):
        handle.call("Nope", "run", 0, job=1)
    with pytest.raises(IndexError):
        handle.call("Delay", "nope", 2, job=1)  # the index is checked first
    with pytest.raises(KeyError, match="no IO"):
        handle.call("Delay", "nope", 0, job=1)
    for _ in range(2):  # a binding resolved once answers every later call
        with pytest.raises(IndexError):
            handle.call("Delay", "run", -1, job=1)
        assert handle.call("Delay", "run", 1, job=1).get() == {"ok": True}
    # A rejected call consumes no uid and leaves no call behind.
    assert handle.issued_calls == 2 and handle.live_calls == 0


def test_dispatch_cost_formula():
    platform = AWSF1Platform()
    d = dispatch_cost_cycles(platform)
    assert d == platform.host.command_lock_cycles + 6 * platform.host.mmio_word_cycles


@pytest.mark.parametrize("latency,n_cores", [(400, 8), (2000, 8), (10000, 4)])
def test_analytic_contention_matches_simulation(latency, n_cores):
    """The queueing model used for long kernels must track the simulated
    runtime server within ~20%."""
    platform = AWSF1Platform(clock_mhz=125.0)
    sim = simulate_measured(n_cores, latency, platform, rounds=3)
    model = analytic_measured(n_cores, latency, platform)
    ratio = model.ops_per_second / sim.ops_per_second
    assert 0.8 < ratio < 1.25, f"model/sim = {ratio:.2f}"


def test_contention_gap_shrinks_with_latency():
    platform = AWSF1Platform(clock_mhz=125.0)
    n = 8
    short = simulate_measured(n, 500, platform, rounds=3)
    long = simulate_measured(n, 20000, platform, rounds=2)
    ideal_short = n * 125e6 / 500
    ideal_long = n * 125e6 / 20000
    assert short.ops_per_second / ideal_short < long.ops_per_second / ideal_long
    assert short.server_bound


def test_dma_advances_time_on_discrete():
    build = BeethovenBuild(delay_config(1, 10), AWSF1Platform())
    handle = FpgaHandle(build.design)
    ptr = handle.malloc(1 << 16)
    before = handle.cycle
    handle.copy_to_fpga(ptr)
    assert handle.cycle - before >= (1 << 16) / 64


def test_remote_ptr_bounds():
    build = BeethovenBuild(delay_config(1, 10), SimulationPlatform())
    handle = FpgaHandle(build.design)
    ptr = handle.malloc(128)
    with pytest.raises(ValueError):
        ptr.write(b"x" * 129)
    with pytest.raises(ValueError):
        ptr.offset(129)
    assert ptr.offset(64) == ptr.fpga_addr + 64
    assert len(ptr) == 128
