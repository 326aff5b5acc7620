"""Targeted tests of the fault-injection machinery and runtime hardening:
deadlock dumps, watchdog timeout/retry, quarantine + reroute, and the typed
error surface of ``ResponseHandle``."""

from __future__ import annotations

from collections import deque

import pytest

from repro.command.rocc import RoccResponse
from repro.core.build import BeethovenBuild
from repro.faults import CommandTimeout, CoreQuarantined, FaultPlan
from repro.kernels.memcpy import memcpy_config
from repro.platforms import AWSF1Platform
from repro.runtime import FpgaHandle, WatchdogConfig
from repro.runtime.server import _Waiter
from repro.sim import DeadlockError, SimulationError


def _build(n_cores=1, plan=None, watchdog=None, scheduling="compiled"):
    build = BeethovenBuild(
        memcpy_config(n_cores=n_cores),
        AWSF1Platform(),
        scheduling=scheduling,
        faults=plan,
        watchdog=watchdog,
    )
    return build, FpgaHandle(build.design)


def _memcpy(handle, core, src, dst, size):
    return handle.call(
        "Memcpy", "memcpy", core, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=size
    )


def _prepare(handle, size=512, n_dst=1, seed=0):
    pattern = bytes((i * 7 + seed) % 256 for i in range(size))
    src = handle.malloc(size)
    dsts = [handle.malloc(size) for _ in range(n_dst)]
    src.write(pattern)
    handle.copy_to_fpga(src)
    return pattern, src, dsts


# A plan whose only fault is dropping the very first R beat: the transfer
# can never complete, so the run hangs until something bounds it.
HANG_PLAN = FaultPlan(seed=0, axi_r_drop_rate=1.0, max_faults_per_site=1)


def test_deadlock_error_carries_structured_dump():
    _, handle = _build(plan=HANG_PLAN)
    pattern, src, (dst,) = _prepare(handle)
    fut = _memcpy(handle, 0, src, dst, 512)
    with pytest.raises(DeadlockError) as ei:
        fut.get(max_cycles=20_000)
    dump = ei.value.dump
    assert dump["scheduling"] == "compiled"
    assert dump["cycle"] >= 20_000
    # The stalled components self-describe: the runtime server is waiting.
    assert "server" in dump["components"]
    assert dump["components"]["server"]["waiting"]
    # And the rendered report is embedded in the message for humans.
    assert "did not converge" in str(ei.value)
    assert "channel" in str(ei.value)


def test_deadlock_error_still_a_simulation_error():
    _, handle = _build(plan=HANG_PLAN)
    pattern, src, (dst,) = _prepare(handle)
    fut = _memcpy(handle, 0, src, dst, 512)
    with pytest.raises(SimulationError):
        fut.get(max_cycles=20_000)


def test_get_timeout_cycles_raises_typed_timeout():
    _, handle = _build(plan=HANG_PLAN)
    pattern, src, (dst,) = _prepare(handle)
    fut = _memcpy(handle, 0, src, dst, 512)
    with pytest.raises(CommandTimeout) as ei:
        fut.get(timeout_cycles=5_000)
    assert ei.value.dump  # the kernel's deadlock dump rides along


def test_watchdog_retry_recovers_lost_response():
    # Drop exactly one MMIO response: the watchdog must time out, re-issue,
    # and the second attempt completes with correct data.
    plan = FaultPlan(seed=1, mmio_resp_drop_rate=1.0, max_faults_per_site=1)
    wd = WatchdogConfig(timeout_cycles=3_000, max_retries=2, quarantine_strikes=5)
    _, handle = _build(plan=plan, watchdog=wd)
    pattern, src, (dst,) = _prepare(handle)
    fut = _memcpy(handle, 0, src, dst, 512)
    assert fut.get(max_cycles=100_000) == {"ok": True}
    handle.copy_from_fpga(dst)
    assert dst.read() == pattern
    assert int(handle.server.timeouts) == 1
    assert int(handle.server.retries) == 1
    assert int(handle.server.quarantines) == 0
    assert handle.faults.counts["mmio_resp_drop"] == 1


def _hang_start(plan: FaultPlan, path: str):
    rng = plan.site_rng(f"core/{path}")
    if rng.random() >= plan.core_hang_rate:
        return None
    return rng.randrange(max(plan.core_hang_window, 1))


def _one_core_hang_plan():
    """A seed where core0 wedges immediately and core1 stays healthy."""

    def mk(seed):
        return FaultPlan(
            seed=seed, core_hang_rate=0.6, core_hang_cycles=0, core_hang_window=50
        )

    seed = next(
        s
        for s in range(500)
        if _hang_start(mk(s), "Memcpy/core0") is not None
        and _hang_start(mk(s), "Memcpy/core1") is None
    )
    return mk(seed)


def test_quarantine_reroutes_to_healthy_core():
    plan = _one_core_hang_plan()
    wd = WatchdogConfig(
        timeout_cycles=2_000,
        max_retries=2,
        backoff_base_cycles=64,
        backoff_cap_cycles=256,
        quarantine_strikes=1,
    )
    _, handle = _build(n_cores=2, plan=plan, watchdog=wd)
    pattern, src, (dst,) = _prepare(handle)
    fut = _memcpy(handle, 0, src, dst, 512)  # addressed to the wedged core
    assert fut.get(max_cycles=200_000) == {"ok": True}
    handle.copy_from_fpga(dst)
    assert dst.read() == pattern
    assert handle.degraded_cores == {(0, 0)}
    assert handle.server.quarantined == {(0, 0)}
    assert int(handle.server.rerouted) >= 1
    # Later commands route straight to the healthy core, no new timeouts.
    before = int(handle.server.timeouts)
    fut2 = _memcpy(handle, 0, src, dst, 512)
    assert fut2.get(max_cycles=200_000) == {"ok": True}
    assert int(handle.server.timeouts) == before


def test_all_cores_quarantined_raises_typed_error():
    plan = FaultPlan(seed=3, core_hang_rate=1.0, core_hang_cycles=0, core_hang_window=1)
    wd = WatchdogConfig(
        timeout_cycles=1_500,
        max_retries=3,
        backoff_base_cycles=64,
        backoff_cap_cycles=256,
        quarantine_strikes=1,
    )
    _, handle = _build(n_cores=2, plan=plan, watchdog=wd)
    pattern, src, (dst,) = _prepare(handle)
    fut = _memcpy(handle, 0, src, dst, 512)
    with pytest.raises(CoreQuarantined):
        fut.get(max_cycles=400_000)
    assert handle.degraded_cores == {(0, 0), (0, 1)}


def test_non_retryable_command_times_out_without_retry():
    plan = FaultPlan(seed=1, mmio_resp_drop_rate=1.0, max_faults_per_site=1)
    wd = WatchdogConfig(timeout_cycles=2_000, max_retries=3)
    _, handle = _build(plan=plan, watchdog=wd)
    pattern, src, (dst,) = _prepare(handle)
    fut = handle.call(
        "Memcpy", "memcpy", 0, _retryable=False,
        src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=512,
    )
    with pytest.raises(CommandTimeout) as ei:
        fut.get(max_cycles=100_000)
    assert ei.value.attempts == 1
    assert int(handle.server.retries) == 0


def test_unmatched_response_counts_as_late():
    _, handle = _build()
    server = handle.server
    # A waiter exists for some other core, so the server is polling; the
    # arriving response matches nobody and must be counted, not dropped
    # silently (the pre-hardening server ignored it without a trace).
    server._waiters[(7, 7)] = deque([_Waiter(lambda r: None)])
    for word in RoccResponse(0, 0, 1, 0).encode_words():
        handle.design.mmio.resp_words.push(word)
    handle.run_until(lambda: int(server.responses_received) >= 1, max_cycles=1_000)
    assert int(server.late_responses) == 1
    assert int(server.responses_received) == 1


def test_watchdog_disabled_by_default():
    _, handle = _build()
    assert not handle.server.watchdog.enabled
    pattern, src, (dst,) = _prepare(handle)
    fut = _memcpy(handle, 0, src, dst, 512)
    fut.get(max_cycles=100_000)
    handle.copy_from_fpga(dst)
    assert dst.read() == pattern
    assert int(handle.server.timeouts) == 0


def test_backoff_is_capped_exponential():
    wd = WatchdogConfig(
        timeout_cycles=100, backoff_base_cycles=256, backoff_cap_cycles=1024
    )
    assert [wd.backoff_cycles(a) for a in (1, 2, 3, 4, 5)] == [
        256, 512, 1024, 1024, 1024,
    ]


def test_snapshot_round_trip_preserves_fault_state(tmp_path):
    """Freeze a run mid-flight *while a fault plan is live*, thaw into a
    freshly replayed skeleton, and finish both: injected-fault history, RNG
    positions, output data, final cycle, and stable metrics must all be
    bit-identical.  This is the ``repro.snapshot`` contract exercised on
    this file's own harness rather than the chaos scenario."""
    from repro.faults import FaultError
    from repro.snapshot import capture, load, restore, save

    plan = FaultPlan(
        seed=5,
        dram_read_flip_rate=0.05,
        axi_r_corrupt_rate=0.05,
        max_faults_per_site=4,
    )

    def _start():
        build, handle = _build(plan=plan)
        pattern, src, (dst,) = _prepare(handle, size=2048)
        fut = _memcpy(handle, 0, src, dst, 2048)
        return build, handle, fut, dst

    def _finish(build, handle, fut, dst):
        error = ""
        try:
            fut.get(max_cycles=100_000)
        except (FaultError, DeadlockError) as exc:
            error = type(exc).__name__
        handle.copy_from_fpga(dst)
        return {
            "error": error,
            "data": dst.read(),
            "cycle": build.design.sim.cycle,
            "n_faults": len(handle.faults.events),
            "fingerprint": handle.faults.fingerprint(),
            "stable_metrics": build.design.metrics(stable_only=True),
        }

    path = str(tmp_path / "faults.ckpt")
    build_a, handle_a, fut_a, dst_a = _start()
    build_a.design.sim.run(300)  # mid-flight, before the transfer completes
    save(capture(handle_a), path)
    ref = _finish(build_a, handle_a, fut_a, dst_a)
    assert ref["n_faults"] > 0, "plan injected nothing; the test proves nothing"

    build_b, handle_b, fut_b, dst_b = _start()  # identical replayed skeleton
    restore(handle_b, load(path))
    assert _finish(build_b, handle_b, fut_b, dst_b) == ref
