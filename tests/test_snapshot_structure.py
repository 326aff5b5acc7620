"""Audit of every ``_state`` declaration under ``repro.``.

A class names its state in ``_state``; the snapshot engine captures and
restores those names and nothing else.  That is only sound if every
attribute a class does *not* declare is structure: bound at construction,
never rebound afterwards (the same object, or an equal plain value, right
after first use, mid-run and at the end), and recreated equal by a rebuild
+ replay.  This file checks that on live designs, for every declaring
class, checks that each declared name is a real attribute, checks that the
audit itself notices a rebound attribute and that a core which declares
nothing is refused, and pins how many objects one capture freezes, which
is what a capture costs.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import random
import sys
import types
from collections import Counter, deque
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import numpy as np
import pytest

import repro
from repro.core.build import BeethovenBuild
from repro.dram.controller import MemoryController
from repro.platforms import AWSF1Platform, SimulationPlatform
from repro.runtime import FpgaHandle
from repro.sim.kernel import RUN_CACHES
from repro.snapshot import SnapshotError, capture, restore
from repro.snapshot.engine import (
    T_NAMED,
    T_OBJ,
    T_STATE,
    Freezer,
    _is_marker,
    declared_state,
    infra_ids,
)
from repro.snapshot.scenario import CHUNK, _build_memcpy


# ------------------------------------------------------------ declarations
def _declared(cls: type) -> Tuple[str, ...]:
    """What the engine captures of a ``cls``, or ``None`` when the class is
    not one it walks (infrastructure, hand-written state, plain wiring)."""
    try:
        return declared_state(cls)
    except SnapshotError:
        return None


def declaring_classes() -> List[type]:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found = {
        obj
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__.startswith("repro.") and "_state" in obj.__dict__
    }
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


# ---------------------------------------------------------------- scenarios
class Scenario(NamedTuple):
    sim: Any
    design: Any  # None for a bare testbench
    advance: Callable[[], None]  # run on to the next audit point
    handle: Any = None


def _upload(handle, blob: bytes):
    ptr = handle.malloc(len(blob))
    ptr.write(blob)
    handle.copy_to_fpga(ptr)
    return ptr


def _accelerated(build, calls, cycles: int, clients: int = 0) -> Scenario:
    """The calls issued through the handle, or in turn through ``clients``
    clients of it."""
    handle = FpgaHandle(build.design)
    callers = [handle.new_client() for _ in range(clients)] or [handle]
    for i, call in enumerate(calls(handle)):
        callers[i % len(callers)].call(*call[:3], **call[3])
    sim = build.design.sim
    return Scenario(sim, build.design, lambda: sim.run(cycles), handle)


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
    return _accelerated(hetero_build(), calls, 1150, clients=2)


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


def typed_errors() -> Scenario:
    """Every fault site live on four cores, two of them wedged for good: the
    host's futures end up holding each typed fault error."""
    from repro.faults.plan import FaultPlan
    from repro.kernels.memcpy import memcpy_config
    from repro.runtime.server import WatchdogConfig

    plan = FaultPlan(seed=2, axi_r_corrupt_rate=0.5, dram_read_flip_rate=0.3, core_hang_rate=0.5,
                     core_hang_cycles=0, core_hang_window=50, mmio_resp_drop_rate=0.3,
                     max_faults_per_site=4)
    watchdog = WatchdogConfig(timeout_cycles=1500, max_retries=1, backoff_base_cycles=64,
                              backoff_cap_cycles=256, quarantine_strikes=2)
    build = BeethovenBuild(memcpy_config(n_cores=4), AWSF1Platform(), faults=plan, watchdog=watchdog)

    def calls(handle):
        src = _upload(handle, bytes(range(256)) * 8)
        for job in range(8):
            yield "Memcpy", "memcpy", job % 4, dict(
                src=src.fpga_addr, dst=handle.malloc(2048).fpga_addr, len_bytes=2048)

    return _accelerated(build, calls, 3000)


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
    """Both baseline copier presets, pure-HDL and HLS, on one bare memory
    testbench."""
    from repro.axi import AxiMonitor, AxiParams, AxiPort, MonitoredAxiPort
    from repro.baselines.copier import HLS, PURE_HDL, BaselineCopier
    from repro.dram import DDR4_AWS_F1, MemoryController
    from repro.sim import Simulator

    sim = Simulator()
    for i, preset in enumerate((PURE_HDL, HLS)):
        port = AxiPort(AxiParams(), name=f"axi{i}", depth=8)
        mport = MonitoredAxiPort(port, AxiMonitor(f"mem{i}"))
        controller = MemoryController(mport, DDR4_AWS_F1, name=f"mc{i}")
        master = BaselineCopier(mport, *preset)
        for comp in (controller, master):
            sim.add(comp)
        for chan in port.channels():
            sim.register_channel(chan)
        controller.store.write(0, bytes(range(256)) * 64)
        master.start(0, 0x4000_0000, 16384)
    return Scenario(sim, None, lambda: sim.run(300))


SCENARIOS = (memcpy32, hetero_serving, machsuite, chaos_with_hangs, typed_errors,
             attention, vecadd_and_spin, intra_core, baseline_masters)


# --------------------------------------------------------------- the audit
def _roots(scenario: Scenario) -> List[Any]:
    """The components, the parts a capture freezes by their declarations,
    and the host's allocator, clients and command outcomes."""
    roots = list(scenario.sim._components)
    design, handle = scenario.design, scenario.handle
    roots += [getattr(design, "faults", None), getattr(design, "span_tracker", None),
              scenario.sim.tracer]
    if handle is not None:
        roots += [handle.allocator, *handle._clients]
        for call in handle._calls.values():
            roots += [call.fut._response, call.fut._error]
    return [root for root in roots if root is not None]


def _refs(scenario: Scenario) -> Dict[int, Tuple[str, Any]]:
    """What a capture of the scenario freezes as references (the command
    contexts of the handle's calls among them), and the handle itself,
    which a client holds."""
    design, handle = scenario.design, scenario.handle
    calls = handle._calls if handle is not None else {}
    refs = infra_ids(scenario.sim, getattr(design, "faults", None),
                     getattr(design, "span_tracker", None), calls)
    return refs if handle is None else {**refs, id(handle): ("handle", None)}


def _attributes(obj: Any) -> Dict[str, Any]:
    found = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        names = cls.__dict__.get("__slots__", ())
        for name in (names,) if isinstance(names, str) else names:
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                found.setdefault(name, getattr(obj, name))
    return found


def _reachable(scenario: Scenario) -> List[Any]:
    """Every model object reachable from the roots, in a fixed order.  The
    handle is not walked: its own state is written by hand."""
    seen, order = {id(scenario.handle)}, []
    stack = list(reversed(_roots(scenario)))
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
            children = list(_attributes(obj).values())
        else:
            continue
        stack.extend(reversed(children))
    return order


def _plain(value: Any) -> bool:
    return isinstance(value, (type(None), bool, int, float, complex, str, bytes)) or (
        type(value) is tuple and all(map(_plain, value)))


_CALLABLES = (types.FunctionType, types.MethodType, types.BuiltinFunctionType, functools.partial)


def fingerprint(value: Any, refs: Dict[int, Tuple[str, Any]], seen: set) -> Any:
    """What a rebuild must recreate equal: plain values as they are,
    infrastructure by its skeleton index, callables by name, objects of a
    state-declaring class by class only (their contents are state), and
    anything else by its attributes."""
    if _plain(value):
        return value
    if id(value) in refs:
        return ("ref", *refs[id(value)])
    t = type(value)
    if isinstance(value, _CALLABLES):
        return ("callable", getattr(value, "__qualname__", t.__qualname__))
    if id(value) in seen:
        return ("seen", t.__qualname__)
    seen.add(id(value))
    if isinstance(value, (list, tuple, deque)):
        return (t.__qualname__, tuple(fingerprint(x, refs, seen) for x in value))
    if isinstance(value, (set, frozenset)):
        return (t.__qualname__, tuple(sorted(map(repr, value))))
    if isinstance(value, dict):
        return (t.__qualname__, tuple((repr(k), fingerprint(v, refs, seen)) for k, v in value.items()))
    if isinstance(value, (bytearray, np.ndarray)):
        return (t.__qualname__, bytes(value))
    if isinstance(value, random.Random):
        return ("Random", value.getstate())
    if hasattr(t, "_state"):
        return ("state", t.__qualname__)
    return (t.__qualname__, tuple(
        (name, fingerprint(v, refs, seen)) for name, v in sorted(_attributes(value).items())))


def audit(scenario: Scenario) -> Dict[Tuple[str, int, str], Tuple[Any, Any]]:
    """(class, nth instance, attribute) -> (the bound object, its
    fingerprint) for every attribute a declaring instance does not declare;
    asserts every declared name is a real attribute on the way."""
    refs = _refs(scenario)
    out, counts = {}, {}
    for obj in _reachable(scenario):
        declared = _declared(type(obj))
        if declared is None:
            continue
        missing = [name for name in declared if not hasattr(obj, name)]
        assert not missing, f"{type(obj).__qualname__} declares {missing}, which it lacks"
        nth = counts[type(obj)] = counts.get(type(obj), -1) + 1
        for name, value in _attributes(obj).items():
            if name not in declared and name not in RUN_CACHES:
                out[(type(obj).__qualname__, nth, name)] = (value, fingerprint(value, refs, set()))
    return out


def _states(scenario: Scenario) -> Counter:
    """The declared state of every object of a ``_state``-declaring class
    reachable from the scenario's roots, as a multiset."""
    fr = Freezer(_refs(scenario))
    return Counter((type(obj).__qualname__, repr(fr.freeze_attrs(obj)))
                   for obj in _reachable(scenario) if "_state" in type(obj).__dict__)


def same_wiring(before, after, identical: bool) -> None:
    assert before.keys() == after.keys()
    for key, (value, tree) in before.items():
        if identical:
            now = after[key][0]
            assert now is value or (_plain(value) and now == value), f"{key} was rebound"
        assert after[key][1] == tree, f"{key} holds a different tree"


def _first_use(scenario: Scenario) -> Scenario:
    scenario.sim.run(1)
    return scenario


@pytest.mark.parametrize("factory", SCENARIOS, ids=lambda f: f.__name__)
def test_excluded_attributes_are_wiring(factory):
    """Every attribute a class leaves out of ``_state`` is structure."""
    scenario = _first_use(factory())
    first = audit(scenario)
    assert first
    scenario.advance()
    mid_run = audit(scenario)
    same_wiring(first, mid_run, identical=True)
    for _ in range(4):
        scenario.advance()
    same_wiring(first, audit(scenario), identical=True)
    # A rebuild + replay recreates them: nothing a restore needs is missing.
    same_wiring(mid_run, audit(_first_use(factory())), identical=False)
    if scenario.handle is not None:
        # A restore into a rebuild reproduces every state object reachable
        # by any path: none is thawed as a copy next to the live one that
        # an undeclared attribute still holds.
        snap = capture(scenario.handle)
        rebuilt = _first_use(factory())
        restore(rebuilt.handle, snap)
        assert _states(rebuilt) == _states(scenario)


def _frozen_classes(payload) -> set:
    """Qualnames of every object marker in a payload."""
    found, seen, stack = set(), set(), [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)) and id(node) not in seen:
            seen.add(id(node))
            if any(_is_marker(node, tag) for tag in (T_OBJ, T_STATE, T_NAMED)):
                found.add(node[2])
            stack.extend(node)
    return found


def test_a_rebound_attribute_fails_the_audit():
    import dataclasses

    scenario = _first_use(memcpy32())
    before = audit(scenario)
    scenario.advance()
    reader = next(o for o in _reachable(scenario) if type(o).__name__ == "Reader")
    reader.tuning = dataclasses.replace(reader.tuning)  # equal value, different object
    with pytest.raises(AssertionError, match="rebound"):
        same_wiring(before, audit(scenario), identical=True)
    same_wiring(before, audit(scenario), identical=False)
    reader.tuning = dataclasses.replace(reader.tuning, max_in_flight=reader.tuning.max_in_flight + 1)
    with pytest.raises(AssertionError, match="different tree"):
        same_wiring(before, audit(scenario), identical=False)


def test_every_declaration_is_covered_and_names_real_attributes():
    """Every class that declares ``_state`` is built by a scenario above, and
    each name it declares is an attribute of every instance."""
    classes = declaring_classes()
    assert len(classes) >= 25
    instances: Dict[type, List[Any]] = {}
    for factory in SCENARIOS:
        scenario = factory()
        for _ in range(5):
            scenario.advance()
        for obj in _reachable(scenario):
            instances.setdefault(type(obj), []).append(obj)
    for cls in classes:
        covered = [obj for typ, objs in instances.items() if issubclass(typ, cls) for obj in objs]
        assert covered, f"no scenario builds a {cls.__qualname__}"
        for name in declared_state(cls):
            assert all(hasattr(obj, name) for obj in covered), (
                f"{cls.__qualname__}._state names {name!r}, which its instances do not have"
            )


def test_a_core_that_declares_nothing_is_refused_by_name():
    """A user core without ``_state`` could only be captured by guessing; the
    capture refuses it and says what to declare."""
    from repro.command.packing import CommandSpec, EmptyAccelResponse, Field, UInt
    from repro.core import AcceleratorConfig
    from repro.core.accelerator import AcceleratorCore

    class UndeclaredCore(AcceleratorCore):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.io = self.beethoven_io(CommandSpec("noop", (Field("x", UInt(8)),)),
                                        EmptyAccelResponse())
            self.seen = 0

        def tick(self, cycle):
            if self.io.req.can_pop():
                self.io.req.pop()
                self.seen += 1

    class DeclaredCore(UndeclaredCore):
        _state = ("seen",)

    for core, refused in ((UndeclaredCore, True), (DeclaredCore, False)):
        config = AcceleratorConfig(name="Quiet", n_cores=1, module_constructor=core)
        handle = FpgaHandle(BeethovenBuild(config, SimulationPlatform()).design)
        handle.run_cycles(5)
        if refused:
            with pytest.raises(SnapshotError, match=r"UndeclaredCore declares no state.*`_state`"):
                capture(handle)
        else:
            assert capture(handle).cycle == handle.cycle


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
    # its live-bank set and two active-ID sets and position maps; 315 while
    # the 9 in-flight AXI payloads were frozen dataclasses, which a capture
    # memoizes as objects (named tuples are values); 306 while the fault
    # state kept a poison append log for partition workers; 305 while the
    # ID compressor kept a set of every wide read ID per narrow ID; 300 while
    # the runtime server's 13 metrics rode in a registry part, uncounted;
    # 313 while the server wrote its queues and tables as unmemoized plain
    # data (declared, its 17 containers and waiters count as objects); 330
    # while each of the server's 12 counters, the 9 DRAM stats and the 8
    # fault counts was a memoized metric object rather than a plain int; 301
    # while the DRAM window kept one column object per entry in an arrival
    # dict, with active-ID sets and per-ID pipeline deques beside it; 249
    # while a Writer kept its staged burst payloads in two dicts beside the
    # bursts; 245 while the AXI monitor kept per-tag R beat counts and an
    # unused active-tag table beside its open records and each SLR pipe held
    # its delay lines in a dict; 241 while the tracer kept a flat event per
    # AXI burst phase.
    assert snap.meta["objects"] == 226
    (state,) = [s for name, s in snap.payload["sim"]["components"] if name == mc.name]
    assert "WBeat" not in _frozen_classes(state)
