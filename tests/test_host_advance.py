"""Host-side time advance goes through the configured scheduler.

``FpgaHandle`` used to let DMA and ``run_cycles`` time pass by looping
``sim.step()`` — a naive tick-everything cycle whatever ``scheduling=`` said.
It now calls ``sim.run(n)``.  The old loop survives here, as the reference
driver the shipped path is compared against: same final cycle, per-command
latencies, DMA accounting, stable metrics and fault fingerprint, with host
time passing *while commands are in flight*, under every scheduling backend,
under fault injection with the watchdog armed, and on a sharded design.

The last tests pin the other half of the contract: every shipped core
publishes an idle hint, so an idle DMA window is jumped rather than stepped,
and cores whose hints are new stay cycle-identical across the backends.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.baselines.delay_core import delay_config
from repro.baselines.spin_core import spin_config
from repro.core import BeethovenBuild
from repro.core.accelerator import AcceleratorCore
from repro.dist import DistConfig
from repro.faults.errors import FaultError
from repro.faults.plan import FaultPlan
from repro.kernels.attention import a3_config, scale_log2e_q
from repro.kernels.machsuite.fig6 import CONFIG_FACTORIES
from repro.kernels.machsuite.phased import PhasedKernelCore
from repro.kernels.memcpy import memcpy_config
from repro.kernels.vecadd import vector_add_config
from repro.platforms import AWSF1Platform, multi_die_platform
from repro.runtime import FpgaHandle
from repro.runtime.server import WatchdogConfig
from repro.sim import SCHEDULING_MODES, DeadlockError

N_CORES = 4
COPY_BYTES = 2048


def _use_step_loop(handle):
    """Reference driver: one tick-everything cycle per host cycle, the loop
    ``_advance_dma``/``run_cycles`` used to carry (one barrier per cycle on a
    sharded design, which has no ``step``)."""
    sim = handle.design.sim
    step = getattr(sim, "step", None) or (lambda: sim.run_slice(1))

    def run_cycles(n):
        for _ in range(n):
            step()

    handle.run_cycles = run_cycles  # _advance_dma advances through run_cycles


def _overlapped_run(reference, platform=AWSF1Platform, **build_args):
    """Four memcpys with DMA and ``run_cycles`` overlapping them in flight."""
    build = BeethovenBuild(memcpy_config(n_cores=N_CORES), platform(), **build_args)
    handle = FpgaHandle(build.design)
    if reference:
        _use_step_loop(handle)
    pattern = bytes((i * 131 + 17) % 256 for i in range(COPY_BYTES))
    src = handle.malloc(COPY_BYTES)
    src.write(pattern)
    handle.copy_to_fpga(src)
    dsts = [handle.malloc(COPY_BYTES) for _ in range(N_CORES)]
    futs = [
        handle.call(
            "Memcpy", "memcpy", c,
            src=src.fpga_addr, dst=dsts[c].fpga_addr, len_bytes=COPY_BYTES,
        )
        for c in range(N_CORES)
    ]
    # Host time passes while the commands are dispatched and executing.
    other = handle.malloc(1024)
    handle.copy_to_fpga(other)
    handle.run_cycles(37)
    handle.copy_from_fpga(other)
    outcomes = []
    for fut in futs:
        try:
            fut.get(max_cycles=200_000)
            outcomes.append("ok")
        except (FaultError, DeadlockError) as exc:
            outcomes.append(type(exc).__name__)
    for dst in dsts:
        handle.copy_from_fpga(dst)
    faults = handle.faults
    server = handle.server
    result = {
        "cycle": handle.cycle,
        "outcomes": outcomes,
        "latencies": [fut.latency_cycles for fut in futs],
        "dma_cycles_spent": handle.dma_cycles_spent,
        "data_ok": [dst.read() == pattern for dst in dsts],
        "fingerprint": faults.canonical_fingerprint() if faults is not None else "",
        "recovery": (int(server.timeouts), int(server.retries), int(server.quarantines)),
        "metrics": build.metrics(stable_only=True),
    }
    getattr(build.design.sim, "shutdown", lambda: None)()
    return result


def _assert_same(shipped, reference):
    for key in reference:
        assert shipped[key] == reference[key], key


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_run_path_matches_step_loop_with_commands_in_flight(mode):
    shipped = _overlapped_run(False, scheduling=mode)
    _assert_same(shipped, _overlapped_run(True, scheduling=mode))
    assert shipped["outcomes"] == ["ok"] * N_CORES
    assert all(shipped["data_ok"])
    # The DMA really overlapped the commands: they were dispatched before it
    # and every one of them finished after it.
    assert shipped["dma_cycles_spent"] > 0
    assert min(shipped["latencies"]) > 1024 // 32 + 37


HANG_PLAN = FaultPlan(seed=11, core_hang_rate=1.0, core_hang_cycles=1500, core_hang_window=400)
HANG_WATCHDOG = WatchdogConfig(
    timeout_cycles=900, max_retries=3, backoff_base_cycles=64, quarantine_strikes=4
)


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_run_path_matches_step_loop_under_hangs_and_watchdog(mode):
    args = dict(scheduling=mode, faults=HANG_PLAN, watchdog=HANG_WATCHDOG)
    shipped = _overlapped_run(False, **args)
    _assert_same(shipped, _overlapped_run(True, **args))
    # The scenario is not vacuous: cores hung and the watchdog had to act.
    assert shipped["fingerprint"]
    assert shipped["recovery"][0] > 0


def test_run_path_matches_step_loop_on_sharded_design():
    args = dict(
        platform=lambda: multi_die_platform(2),
        distributed=DistConfig(n_workers=2, engine="serial"),
    )
    shipped = _overlapped_run(False, **args)
    _assert_same(shipped, _overlapped_run(True, **args))
    assert shipped["outcomes"] == ["ok"] * N_CORES
    assert all(shipped["data_ok"])


def test_get_on_settled_future_does_not_enter_the_run_loop():
    build = BeethovenBuild(delay_config(1, 50), AWSF1Platform())
    handle = FpgaHandle(build.design)
    fut = handle.call("Delay", "run", 0, job=1)
    fut.get()
    cycle = handle.cycle

    def no_run(*_args, **_kwargs):
        raise AssertionError("settled future re-entered sim.run")

    build.design.sim.run = no_run
    assert fut.get() == {"ok": True}
    assert handle.cycle == cycle


# ------------------------------------------------------------------ idle hints
SHIPPED_CORE_CONFIGS = {
    "vecadd": lambda: vector_add_config(2),
    "memcpy": lambda: memcpy_config(2),
    "a3": lambda: a3_config(2, dim=16, n_keys=16),
    **{name: (lambda f=factory: f(1)) for name, factory in CONFIG_FACTORIES.items()},
    "delay": lambda: delay_config(2, 100),
    "spin": lambda: spin_config(2),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CORE_CONFIGS))
def test_idle_dma_window_is_jumped_for_every_shipped_core(name):
    """An unhinted core costs one tick per idle host cycle; none ships."""
    build = BeethovenBuild(SHIPPED_CORE_CONFIGS[name](), AWSF1Platform())
    handle = FpgaHandle(build.design)
    handle.copy_to_fpga(handle.malloc(64 * 1024))
    assert handle.dma_cycles_spent == handle.cycle > 2000
    assert build.design.sim.cycles_skipped >= 0.95 * handle.dma_cycles_spent


def test_idle_jump_list_covers_every_shipped_core_class():
    """A core class added under ``repro`` must join the idle-jump test."""
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    shipped = {
        cls for cls in subclasses(AcceleratorCore) if cls.__module__.startswith("repro.")
    } - {PhasedKernelCore}
    covered = set()
    for factory in SHIPPED_CORE_CONFIGS.values():
        design = BeethovenBuild(factory(), AWSF1Platform()).design
        covered |= {type(ecore.core) for system in design.systems for ecore in system.cores}
    assert shipped == covered


# ------------------------------------------- newly hinted cores, differentially
def _upload(handle, data):
    ptr = handle.malloc(max(len(data), 64))
    ptr.write(data)
    handle.copy_to_fpga(ptr)
    return ptr


def _gemm_run(mode):
    rng = np.random.default_rng(1)
    n = 16
    build = BeethovenBuild(CONFIG_FACTORIES["gemm"](2), AWSF1Platform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    futs, outs, want = [], [], []
    for core in range(2):
        a = rng.integers(-9, 9, (n, n)).astype(np.int32)
        b = rng.integers(-9, 9, (n, n)).astype(np.int32)
        pa, pb = _upload(handle, a.tobytes()), _upload(handle, b.tobytes())
        outs.append(handle.malloc(n * n * 4))
        want.append((a @ b).tobytes())
        futs.append(
            handle.call(
                "Gemm", "gemm", core,
                a_addr=pa.fpga_addr, b_addr=pb.fpga_addr, c_addr=outs[-1].fpga_addr, n=n,
            )
        )
    for fut in futs:
        fut.get()
    for out in outs:
        handle.copy_from_fpga(out)
    assert [out.read() for out in outs] == want
    return handle.cycle, [f.latency_cycles for f in futs], build.metrics(stable_only=True)


def _a3_run(mode):
    rng = np.random.default_rng(3)
    dim, n_keys, n_queries = 16, 24, 6
    build = BeethovenBuild(a3_config(2, dim, n_keys), AWSF1Platform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    keys, values, queries = (
        rng.integers(-50, 50, (rows, dim)).astype(np.int8)
        for rows in (n_keys, n_keys, n_queries)
    )
    pk, pv, pq = (_upload(handle, m.tobytes()) for m in (keys, values, queries))
    out = handle.malloc(queries.nbytes)
    load = handle.call("A3", "load_kv", 1, key_addr=pk.fpga_addr, value_addr=pv.fpga_addr)
    load.get()
    handle.run_cycles(100)  # idle between commands: the core sleeps here
    attend = handle.call(
        "A3", "attend", 1,
        query_addr=pq.fpga_addr, out_addr=out.fpga_addr,
        n_queries=n_queries, temp_q=scale_log2e_q(dim, 0.05),
    )
    attend.get()
    handle.copy_from_fpga(out)
    return (
        handle.cycle,
        [load.latency_cycles, attend.latency_cycles],
        out.read(),
        build.metrics(stable_only=True),
    )


@pytest.mark.parametrize("run", [_gemm_run, _a3_run])
def test_newly_hinted_cores_are_cycle_identical_across_backends(run):
    reference = run("naive")
    for mode in SCHEDULING_MODES[1:]:
        assert run(mode) == reference, mode
