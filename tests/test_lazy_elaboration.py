"""Elaboration pays only for what a run reads or touches.

An elaborated design registers its netlist with the simulator at the first
use of ``design.sim``; ``Simulator.add``/``register_channel`` then leave one
pending entry per component/channel and the registry adopts them on first
use; ``Memory`` allocates its rows on first touch.  Four contracts keep that
honest:

* wiring — a costed-only design makes no ``add``/``register_channel`` call,
  and every first-use entry point wires the same sequence as a design wired
  in its constructor;
* identity — a lazily adopted registry has exactly the keys (in order, with
  the same ``#2`` duplicate suffixes), volatility split and values of one fed
  eagerly, ``register_metrics`` by ``register_metrics`` in ``add`` order;
* allocation guard — a design that is only elaborated holds no metric views
  and no scratchpad rows, so an eager ``bind`` in a hot constructor fails
  here instead of silently re-opening the hole;
* observer effect — reading metrics mid-run changes nothing about the run.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.build import BeethovenBuild
from repro.core.elaboration import ElaboratedDesign
from repro.dse import sweep_cores
from repro.faults import FaultPlan
from repro.faults.chaos import MODES
from repro.kernels.machsuite.nw import nw_config
from repro.kernels.memcpy import memcpy_config
from repro.memory.scratchpad import Memory
from repro.obs.registry import BoundMetric, Counter, MetricRegistry
from repro.platforms import AWSF1Platform, multi_die_platform
from repro.runtime import FpgaHandle
from repro.serve import AcceleratorService, TenantConfig
from repro.serve.scenarios import hetero_build
from repro.sim import ChannelQueue, CompiledProgram, Component, Simulator
from repro.snapshot import capture


# -------------------------------------------------------------------- wiring
def _wiring_log(monkeypatch):
    """Record every ``Simulator.add``/``register_channel`` call, in order."""
    log = []
    add, register_channel = Simulator.add, Simulator.register_channel

    def logged_add(self, component):
        log.append(("add", self.name, type(component).__name__, component.name))
        return add(self, component)

    def logged_register_channel(self, chan):
        log.append(("chan", self.name, chan.name))
        return register_channel(self, chan)

    monkeypatch.setattr(Simulator, "add", logged_add)
    monkeypatch.setattr(Simulator, "register_channel", logged_register_channel)
    return log


def _wire_in_constructor(monkeypatch):
    """The eager reference: every design is wired before its constructor
    returns, as it was before wiring moved to first use."""
    init = ElaboratedDesign.__init__

    def eager_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.sim

    monkeypatch.setattr(ElaboratedDesign, "__init__", eager_init)


def test_a_sweep_wires_nothing(monkeypatch):
    log = _wiring_log(monkeypatch)
    points = sweep_cores(memcpy_config, range(1, 9), AWSF1Platform())
    assert [p.n_cores for p in points] == list(range(1, 9))
    assert all(p.feasible and p.total_lut > 0 for p in points)
    assert log == []


_ENTRY_POINTS = {
    "handle": lambda build: FpgaHandle(build.design),
    "metrics": lambda build: build.metrics(),
    "registry": lambda build: build.design.registry,
    "service": lambda build: AcceleratorService(
        FpgaHandle(build.design), [TenantConfig(name="t")]
    ),
    "snapshot": lambda build: capture(FpgaHandle(build.design)),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_first_use_wires_like_the_eager_reference(entry, monkeypatch):
    log = _wiring_log(monkeypatch)

    def wire():
        log.clear()
        build = BeethovenBuild(
            memcpy_config(n_cores=4),
            AWSF1Platform(),
            faults=FaultPlan(seed=7, axi_r_corrupt_rate=0.01),
        )
        at_construction = len(log)
        _ENTRY_POINTS[entry](build)
        return at_construction, list(log), list(build.metrics())

    built, lazy, lazy_keys = wire()
    assert built == 0
    _wire_in_constructor(monkeypatch)
    built, eager, eager_keys = wire()
    assert built > 0
    # Same components and channels, in the same order, into the same
    # simulator; hence the same registry keys and ``#n`` suffixes.
    assert lazy == eager
    assert lazy_keys == eager_keys


def test_sharded_builds_wire_in_the_constructor(monkeypatch):
    """``distributed=`` builds stay eager: DistSimulator validates the wired
    partitions, and its errors must come from the constructor."""
    log = _wiring_log(monkeypatch)
    stages = _two_die_serial()
    next(stages)
    assert {entry[1] for entry in log} == {"beethoven", "part1"}
    wired = len(log)
    next(stages)  # FpgaHandle adds only the RuntimeServer
    assert [entry[2] for entry in log[wired:] if entry[0] == "add"] == ["RuntimeServer"]


# ------------------------------------------------------------------ identity
def _memcpy32():
    build = BeethovenBuild(memcpy_config(n_cores=32), AWSF1Platform())
    yield build
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(1024), handle.malloc(1024)
    src.write(bytes(range(256)) * 4)
    handle.copy_to_fpga(src)
    handle.call(
        "Memcpy", "memcpy", 5, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=1024
    ).get()
    yield build


def _hetero():
    build = hetero_build()
    yield build
    FpgaHandle(build.design)  # adds the RuntimeServer after elaboration
    yield build


def _nw_point():
    yield BeethovenBuild(nw_config(n_cores=4), AWSF1Platform())


def _faulted():
    # The plan's ``fault/*`` counters are registered inside the constructor,
    # before the netlist is wired.
    build = BeethovenBuild(
        memcpy_config(n_cores=2),
        AWSF1Platform(),
        faults=FaultPlan(seed=3, dram_read_flip_rate=0.01, mmio_resp_drop_rate=0.01),
    )
    yield build
    FpgaHandle(build.design)
    yield build


def _two_die_serial():
    from repro.dist import DistConfig

    build = BeethovenBuild(
        memcpy_config(n_cores=2),
        multi_die_platform(2),
        distributed=DistConfig(n_workers=2, engine="serial"),
    )
    yield build
    FpgaHandle(build.design)
    yield build


class _Twin(Component):
    def __init__(self, hits: int, depth: int) -> None:
        super().__init__("twin")
        self.hits = Counter(hits)
        self.q = ChannelQueue(depth, "twin.q")

    def channels(self):
        return [self.q]

    def register_metrics(self, scope) -> None:
        scope.attach("hits", self.hits)

    def tick(self, cycle: int) -> None:
        pass


def _twins():
    sim = Simulator()
    sim.add(_Twin(1, 2))
    yield sim.registry
    sim.add(_Twin(2, 3))
    yield sim.registry


def _dumps(stages, read_between: bool):
    """Full and stable dumps after the last stage; ``read_between`` also
    reads at every earlier stage (adoption then happens in instalments)."""
    for source in stages():
        registry = getattr(source, "registry", source)
        if read_between:
            registry.dump()
    return registry.dump(), registry.dump(stable_only=True)


@pytest.mark.parametrize(
    "stages", (_memcpy32, _hetero, _nw_point, _faulted, _two_die_serial, _twins),
    ids=lambda fn: fn.__name__.strip("_"),
)
def test_lazy_registry_matches_eager_reference(stages, monkeypatch):
    lazy = _dumps(stages, read_between=False)
    instalments = _dumps(stages, read_between=True)
    # The reference: every registry adopts at registration time.
    monkeypatch.setattr(
        MetricRegistry, "defer", lambda self, prefix, register: register(self.scope(prefix))
    )
    full, stable = _dumps(stages, read_between=False)
    assert len(full) > len(stable) > 0
    for got_full, got_stable in (lazy, instalments):
        # Same keys in the same order (so the same ``#n`` suffixes), the same
        # volatility split, and — volatile wall-clock aside — the same values.
        assert list(got_full) == list(full)
        assert list(got_stable) == list(stable)
        assert got_stable == stable
    keys = list(full)
    faults = [i for i, k in enumerate(keys) if k.startswith("fault/")]
    if faults:
        # Fault counters precede every component and channel key: reading
        # ``design.sim`` while the constructor compiles the plan must not wire.
        first_component = next(i for i, k in enumerate(keys) if k.startswith("chan/"))
        assert max(faults) < first_component


def test_duplicate_suffixes_follow_registration_order():
    *_, registry = _twins()
    assert registry.value("twin/hits") == 1 and registry.value("twin/hits#2") == 2
    assert registry.value("chan/twin/q/capacity") == 2
    assert registry.value("chan/twin/q/capacity#2") == 3
    assert "twin/hits#3" not in registry and len(registry) == len(registry.names())


# ---------------------------------------------------------- allocation guard
def _live(cls):
    gc.collect()
    return {id(o): o for o in gc.get_objects() if type(o) is cls}


def test_elaboration_alone_builds_no_views_and_no_rows():
    views_before, mems_before = _live(BoundMetric), _live(Memory)
    copy48 = BeethovenBuild(memcpy_config(n_cores=48), AWSF1Platform())
    nw16 = BeethovenBuild(nw_config(n_cores=16), AWSF1Platform())
    views = [v for i, v in _live(BoundMetric).items() if i not in views_before]
    # Only the two simulators' own sim/* and trace/* views exist (6 + 4
    # each): nothing for any chan/... or component path.
    assert len(views) <= 20
    mems = [m for i, m in _live(Memory).items() if i not in mems_before]
    assert len(mems) >= 16 and all(m._cells is None for m in mems)

    # The guard measures something: the first read adopts thousands of views.
    names = copy48.registry.names()
    assert any(n.startswith("chan/") for n in names)
    assert len(_live(BoundMetric)) - len(views_before) > 1000
    assert nw16.metrics() and all(m._cells is None for m in mems)


def test_tick_program_is_compiled_at_the_first_run_only():
    """The default schedule is ``compiled``; its program is a run-time cost.

    ``compose_sweep`` elaborates a hundred designs it never simulates and
    every workload's ``setup_s`` ends before the first ``run()``, so a
    compile in elaboration or in ``FpgaHandle`` would be paid where nothing
    uses it."""
    before = _live(CompiledProgram)

    def programs():
        return [p for i, p in _live(CompiledProgram).items() if i not in before]

    build = BeethovenBuild(memcpy_config(n_cores=48), AWSF1Platform())
    assert build.design.sim.scheduling == "compiled" and not programs()
    handle = FpgaHandle(build.design)  # adds the RuntimeServer
    assert not programs()
    handle.run_cycles(10)
    (first,) = programs()
    handle.run_cycles(10)
    assert programs() == [first]
    # A later add does not compile either; the next run() rebuilds, once.
    build.design.sim.add(_Twin(0, 2))
    assert programs() == [first]
    first = weakref.ref(first)
    handle.run_cycles(10)
    (second,) = programs()
    assert first() is None
    handle.run_cycles(10)
    assert programs() == [second]


# ----------------------------------------------------------- observer effect
def _chunked_memcpy(mode: str, read_metrics: bool):
    build = BeethovenBuild(memcpy_config(n_cores=4), AWSF1Platform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    size = 2048
    src = handle.malloc(size)
    src.write(bytes((i * 7 + 3) % 256 for i in range(size)))
    handle.copy_to_fpga(src)
    futs = [
        handle.call(
            "Memcpy", "memcpy", core,
            src=src.fpga_addr, dst=handle.malloc(size).fpga_addr, len_bytes=size,
        )
        for core in range(4)
    ]
    while not all(f.done for f in futs):
        handle.run_cycles(125)
        if read_metrics:
            assert build.metrics()
    return handle.cycle, [f.latency_cycles for f in futs], build.metrics(stable_only=True)


@pytest.mark.parametrize("mode", MODES)
def test_reading_metrics_mid_run_changes_nothing(mode):
    assert _chunked_memcpy(mode, True) == _chunked_memcpy(mode, False)
