"""Audit of every ``_snapshot_exclude`` declaration under ``repro.``.

A class lists the attributes it binds at construction and the snapshot
freezer does not walk them: the rebuilt design has them already.  That is
only sound if a listed attribute (1) exists, (2) is never rebound after
elaboration, (3) holds no state of its own — it freezes to the same tree at
any point of a run — and (4) is recreated equal by a rebuild + replay.
This file checks all four on live designs, for every declaring class, and
checks that the audit itself notices a rebound attribute.  It also pins how
many objects one capture freezes, which is what a capture costs.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from collections import deque
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import numpy as np
import pytest

import repro
from repro.core.build import BeethovenBuild
from repro.dram.controller import MemoryController
from repro.platforms import AWSF1Platform, SimulationPlatform, multi_die_platform
from repro.runtime import FpgaHandle
from repro.snapshot import capture
from repro.snapshot.engine import T_OBJ, T_STATE, Freezer, _infra, _is_marker, _plan
from repro.snapshot.scenario import CHUNK, _build_memcpy


# ------------------------------------------------------------ declarations
def _declared(cls: type) -> List[str]:
    """What the freezer skips for ``cls`` — read from the freezer's own plan."""
    return sorted(_plan(cls, ())[1])


def declaring_classes() -> List[type]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found = {
        obj
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__.startswith("repro.")
        and obj.__dict__.get("_snapshot_exclude")
    }
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


# ---------------------------------------------------------------- scenarios
class Scenario(NamedTuple):
    sims: list  # every simulator of the design (one per dist partition)
    design: Any  # None for a bare testbench
    advance: Callable[[], None]  # run to a mid-flight point
    handle: Any = None


def _upload(handle, blob: bytes):
    ptr = handle.malloc(len(blob))
    ptr.write(blob)
    handle.copy_to_fpga(ptr)
    return ptr


def _accelerated(build, calls, cycles: int) -> Scenario:
    handle = FpgaHandle(build.design)
    for call in calls(handle):
        handle.call(*call[:3], **call[3])
    sim = build.design.sim
    return Scenario(getattr(sim, "sims", [sim]), build.design, lambda: sim.run(cycles), handle)


def memcpy32() -> Scenario:
    from repro.kernels.memcpy import memcpy_config

    def calls(handle):
        src = _upload(handle, bytes(range(256)) * 16)
        for core in range(8):
            dst = handle.malloc(4096)
            yield "Memcpy", "memcpy", core, dict(src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=4096)

    return _accelerated(BeethovenBuild(memcpy_config(n_cores=32), AWSF1Platform()), calls, 400)


def hetero_serving() -> Scenario:
    from repro.serve.scenarios import hetero_build

    calls = lambda handle: [("Gemm", "gemm", 0, dict(job=1)), ("Attn", "attn", 1, dict(job=2))]
    return _accelerated(hetero_build(), calls, 1150)


def machsuite() -> Scenario:
    """All five Table I cores in one design; gemm and nw run a command."""
    from repro.kernels.machsuite.fig6 import CONFIG_FACTORIES

    def calls(handle):
        rng = np.random.default_rng(5)
        a, b = (_upload(handle, rng.integers(-9, 9, (16, 16)).astype(np.int32).tobytes())
                for _ in range(2))
        c = handle.malloc(16 * 16 * 4)
        yield "Gemm", "gemm", 0, dict(a_addr=a.fpga_addr, b_addr=b.fpga_addr, c_addr=c.fpga_addr, n=16)
        sa, sb = (_upload(handle, bytes(rng.integers(65, 69, 32).astype(np.uint8))) for _ in range(2))
        out = handle.malloc(4 * 32)
        yield "Nw", "nw", 0, dict(
            seq_a_addr=sa.fpga_addr, seq_b_addr=sb.fpga_addr, out_addr=out.fpga_addr, n=32)

    configs = [factory(1) for factory in CONFIG_FACTORIES.values()]
    return _accelerated(BeethovenBuild(configs, AWSF1Platform()), calls, 600)


def chaos_with_hangs() -> Scenario:
    """The chaos memcpy under a plan that patches hang windows over ticks."""
    from repro.faults.chaos import CHAOS_WATCHDOG
    from repro.faults.plan import FaultPlan
    from repro.kernels.memcpy import memcpy_config

    plan = FaultPlan(seed=9, axi_r_corrupt_rate=0.03, dram_read_flip_rate=0.02,
                     core_hang_rate=1.0, core_hang_cycles=400, core_hang_window=300)
    build = BeethovenBuild(memcpy_config(n_cores=2), AWSF1Platform(), faults=plan,
                           watchdog=CHAOS_WATCHDOG)

    def calls(handle):
        src = _upload(handle, bytes(range(256)) * 32)
        for core in range(2):
            dst = handle.malloc(8192)
            yield "Memcpy", "memcpy", core, dict(src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=8192)

    scenario = _accelerated(build, calls, 900)
    assert any(e.kind == "core_hang" for e in build.design.faults.events)
    return scenario


def attention() -> Scenario:
    from repro.kernels.attention import a3_config

    def calls(handle):
        keys, values = (_upload(handle, bytes((i * s + 1) % 251 for i in range(256))) for s in (3, 7))
        yield "A3", "load_kv", 0, dict(key_addr=keys.fpga_addr, value_addr=values.fpga_addr)

    return _accelerated(BeethovenBuild(a3_config(1, 16, 16), SimulationPlatform()), calls, 150)


def vecadd_and_spin() -> Scenario:
    from repro.baselines.spin_core import spin_config
    from repro.kernels.vecadd import vector_add_config

    def calls(handle):
        vec = _upload(handle, np.arange(64, dtype=np.uint32).tobytes())
        yield "MyAcceleratorSystem", "my_accel", 0, dict(addend=42, vec_addr=vec.fpga_addr, n_eles=64)
        yield "Spin", "spin", 0, dict(rounds=500, seed=1)

    configs = [vector_add_config(1), spin_config(1, work_per_tick=4)]
    return _accelerated(BeethovenBuild(configs, AWSF1Platform()), calls, 200)


def intra_core() -> Scenario:
    from test_intra_core import ConsumerCore, ProducerCore

    from repro.core import (
        AcceleratorConfig,
        IntraCoreMemoryPortInConfig,
        IntraCoreMemoryPortOutConfig,
    )

    producer = AcceleratorConfig(
        name="Producer", n_cores=1, module_constructor=ProducerCore,
        memory_channel_config=(IntraCoreMemoryPortOutConfig(
            "to_consumer", to_system="Consumer", to_memory_port="inbox"),),
    )
    consumer = AcceleratorConfig(
        name="Consumer", n_cores=2, module_constructor=ConsumerCore,
        memory_channel_config=(IntraCoreMemoryPortInConfig(
            "inbox", n_channels=1, ports_per_channel=1, data_width_bits=32, n_datas=256,
            comm_degree="broadcast"),),
    )
    calls = lambda handle: [("Producer", "produce", 0, dict(n=64, seed=1000))]
    return _accelerated(BeethovenBuild([producer, consumer], SimulationPlatform()), calls, 120)


def baseline_masters() -> Scenario:
    """The hand-written HDL and HLS copiers on one bare memory testbench."""
    from repro.axi import AxiMonitor, AxiParams, AxiPort, MonitoredAxiPort
    from repro.baselines.hdl_memcpy import HdlMemcpyMaster
    from repro.baselines.hls_memcpy import HlsMemcpyMaster
    from repro.dram import DDR4_AWS_F1, MemoryController
    from repro.sim import Simulator

    sim = Simulator()
    for i, master_cls in enumerate((HdlMemcpyMaster, HlsMemcpyMaster)):
        port = AxiPort(AxiParams(), name=f"axi{i}", depth=8)
        mport = MonitoredAxiPort(port, AxiMonitor(f"mem{i}"))
        controller = MemoryController(mport, DDR4_AWS_F1, name=f"mc{i}")
        master = master_cls(mport, name=f"master{i}")
        for comp in (controller, master):
            sim.add(comp)
        for chan in port.channels():
            sim.register_channel(chan)
        controller.store.write(0, bytes(range(256)) * 64)
        master.start(0, 0x4000_0000, 16384)
    return Scenario([sim], None, lambda: sim.run(300))


def dist_bridges() -> Scenario:
    from repro.dist import DistConfig
    from repro.kernels.memcpy import memcpy_config

    def calls(handle):
        src = _upload(handle, bytes(range(256)) * 16)
        dst = handle.malloc(4096)
        yield "Memcpy", "memcpy", 0, dict(src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=4096)

    build = BeethovenBuild(memcpy_config(n_cores=2), multi_die_platform(2),
                           distributed=DistConfig(n_workers=2, engine="serial"))
    return _accelerated(build, calls, 400)


SCENARIOS = (memcpy32, hetero_serving, machsuite, chaos_with_hangs, attention,
             vecadd_and_spin, intra_core, baseline_masters, dist_bridges)


# --------------------------------------------------------------- the audit
def _reachable(sims) -> List[Any]:
    """Every model object reachable from the components, in a fixed order."""
    seen, order = set(), []
    stack = [comp for sim in reversed(sims) for comp in reversed(sim._components)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            children = list(obj.values())
        elif isinstance(obj, (list, tuple, deque)):
            children = list(obj)
        elif type(obj).__module__.split(".")[0] in ("repro", "test_intra_core"):
            order.append(obj)
            children = list(getattr(obj, "__dict__", {}).values())
            children += [getattr(obj, s) for s in getattr(type(obj), "__slots__", ())
                         if hasattr(obj, s)]
        else:
            continue
        stack.extend(reversed(children))
    return order


def audit(scenario: Scenario) -> Dict[Tuple[str, int, str], Tuple[Any, Any]]:
    """(class, nth instance, attribute) -> (the bound object, its frozen tree)
    for every excluded attribute of every declaring instance."""
    fr = Freezer()
    design = scenario.design
    for part, sim in enumerate(scenario.sims):
        spans = getattr(design, "span_tracker", None)
        for kind, key, obj in _infra(sim, getattr(design, "faults", None), spans):
            fr.add_infra(obj, kind, (part, key))
    out, counts = {}, {}
    for obj in _reachable(scenario.sims):
        names = _declared(type(obj))
        if not names:
            continue
        nth = counts[type(obj)] = counts.get(type(obj), -1) + 1
        for name in names:
            value = getattr(obj, name)  # a typo in a declaration fails here
            out[(type(obj).__qualname__, nth, name)] = (value, fr._freeze(value))
    return out


def same_wiring(before, after, identical: bool) -> None:
    assert before.keys() == after.keys()
    for key, (value, tree) in before.items():
        if identical:
            assert after[key][0] is value, f"{key} was rebound"
        assert after[key][1] == tree, f"{key} froze to a different tree"


@pytest.mark.parametrize("factory", SCENARIOS, ids=lambda f: f.__name__)
def test_excluded_attributes_are_wiring(factory):
    scenario = factory()
    at_start = audit(scenario)
    assert at_start
    scenario.advance()
    mid_flight = audit(scenario)
    same_wiring(at_start, mid_flight, identical=True)
    # A rebuild + replay recreates them: nothing a restore needs is missing.
    same_wiring(mid_flight, audit(factory()), identical=False)
    shipped = all(type(c).__module__.startswith("repro.") for c in scenario.sims[0]._components)
    if scenario.handle is not None and len(scenario.sims) == 1 and shipped:
        # And no object bound to an excluded attribute is reached some other
        # way: it would be thawed as a copy next to the live one.  (A user
        # core that declares nothing still walks into its ports: allowed.)
        wiring = {type(value).__qualname__ for value, tree in mid_flight.values()
                  if _is_marker(tree, T_OBJ)}
        assert not wiring & _frozen_classes(capture(scenario.handle).payload)


def _frozen_classes(payload) -> set:
    """Qualnames of every object marker in a payload."""
    found, seen, stack = set(), set(), [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)) and id(node) not in seen:
            seen.add(id(node))
            if _is_marker(node, T_OBJ) or _is_marker(node, T_STATE):
                found.add(node[2])
            stack.extend(node)
    return found


def test_a_rebound_attribute_fails_the_audit():
    import dataclasses

    scenario = memcpy32()
    before = audit(scenario)
    scenario.advance()
    reader = next(o for o in _reachable(scenario.sims) if type(o).__name__ == "Reader")
    reader.tuning = dataclasses.replace(reader.tuning)  # equal value, different object
    with pytest.raises(AssertionError, match="rebound"):
        same_wiring(before, audit(scenario), identical=True)
    same_wiring(before, audit(scenario), identical=False)
    reader.tuning = dataclasses.replace(reader.tuning, max_in_flight=reader.tuning.max_in_flight + 1)
    with pytest.raises(AssertionError, match="different tree"):
        same_wiring(before, audit(scenario), identical=False)


def test_every_declaration_is_covered_and_names_real_attributes():
    """No typo can silently exclude nothing, and no declaring class escapes
    the scenarios above."""
    classes = declaring_classes()
    assert len(classes) >= 25
    instances: Dict[type, Any] = {}
    for factory in SCENARIOS:
        for obj in _reachable(factory().sims):
            instances.setdefault(type(obj), obj)
    for cls in classes:
        covered = [obj for typ, obj in instances.items() if issubclass(typ, cls)]
        assert covered, f"no scenario builds a {cls.__qualname__}"
        for name in cls.__dict__["_snapshot_exclude"]:
            assert all(hasattr(obj, name) for obj in covered), (
                f"{cls.__qualname__}._snapshot_exclude names {name!r}, "
                "which its instances do not have"
            )


# -------------------------------------------------------- what a capture costs
@pytest.mark.parametrize("mode", ("naive", "compiled"))
def test_capture_freezes_a_pinned_number_of_objects(mode):
    """A capture costs per object reached, not per byte, so a model field
    that keeps one object per beat multiplies it.  Pinned on the
    kill-and-resume scenario's memcpy at its first chunk boundary, where the
    DRAM controller holds accepted write data: as plain values, no WBeat."""
    build, handle, futs, _, _ = _build_memcpy(0, mode)
    sim = build.design.sim
    sim.run(CHUNK)
    (mc,) = [c for c in sim._components if isinstance(c, MemoryController)]
    assert not any(f.done for f in futs)
    assert any(txn.wdata for txn in mc._write_txns.values())
    snap = capture(handle)
    # 373 while the controller kept one WBeat per accepted beat; 310 before
    # its live-bank set and two active-ID sets and position maps.
    assert snap.meta["objects"] == 315
    (state,) = [s for name, s in snap.payload["sim"]["components"] if name == mc.name]
    assert "WBeat" not in _frozen_classes(state)
