"""Reusable simulation harnesses for tests and examples.

These helpers wire a handful of AXI master ports through a generated tree
network to a memory controller — the plumbing every unit test of a memory
primitive needs, and a useful starting point for users experimenting with the
substrates directly (the full framework does this wiring via
:class:`repro.core.build.BeethovenBuild`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.axi import AxiMonitor, AxiParams, AxiPort, MonitoredAxiPort
from repro.dram import DDR4_AWS_F1, DramTiming, MemoryController, MemoryStore
from repro.noc import TreeConfig, build_network, plan_tree
from repro.sim import DEFAULT_SCHEDULING, Component, Simulator, Tracer


@dataclass
class MemoryTestbench:
    """A simulator with a DRAM controller and a network of master ports."""

    sim: Simulator
    controller: MemoryController
    monitor: AxiMonitor
    tracer: Tracer

    @property
    def store(self) -> MemoryStore:
        return self.controller.store

    def run(self, max_cycles: int, until=None) -> int:
        return self.sim.run(max_cycles, until=until)


def build_memory_testbench(
    master_ports: Sequence[AxiPort],
    slrs: Optional[Sequence[int]] = None,
    timing: DramTiming = DDR4_AWS_F1,
    tree_config: Optional[TreeConfig] = None,
    controller_params: Optional[AxiParams] = None,
    child_id_bits: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    profile: bool = False,
    scheduling: str = DEFAULT_SCHEDULING,
) -> MemoryTestbench:
    """Wire ``master_ports`` through a tree network to a DRAM controller.

    ``scheduling`` picks the kernel schedule ("naive" or "compiled"); by
    default the testbench runs :data:`repro.sim.DEFAULT_SCHEDULING` (the
    compiled schedule, cycle-exact).
    Driving the master ports directly between ``run`` calls is safe under
    every schedule: a push or pop on a registered channel is committed at
    the next run's entry cycle.  ``profile`` enables the per-component
    wall-clock profiler (:func:`repro.obs.render_profile_report`).
    """
    tracer = tracer or Tracer()
    params = controller_params or AxiParams(beat_bytes=timing.col_bytes)
    slave_port = AxiPort(params, "mem", depth=8)
    monitor = AxiMonitor("mem")
    mport = MonitoredAxiPort(slave_port, monitor)
    controller = MemoryController(mport, timing)

    sim = Simulator(tracer=tracer, profile=profile, scheduling=scheduling)
    sim.add(controller)
    sim.add(monitor)
    for chan in slave_port.channels():
        sim.register_channel(chan)

    if slrs is None:
        slrs = [0] * len(master_ports)
    if child_id_bits is None:
        child_id_bits = max(p.params.id_bits for p in master_ports)
    plan = plan_tree(tree_config or TreeConfig(), slrs, child_id_bits)
    net = build_network(plan, master_ports, mport)
    net.register_with(sim)
    for port in master_ports:
        for chan in port.channels():
            sim.register_channel(chan)
    return MemoryTestbench(sim, controller, monitor, tracer)


def drain(components: Sequence[Component], attr: str = "idle") -> bool:
    """True when every component reports idle."""
    return all(getattr(c, attr)() for c in components)
