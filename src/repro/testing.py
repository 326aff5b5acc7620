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
from repro.dram import DDR4_AWS_F1, MemoryController, MemoryStore
from repro.noc import TreeConfig, build_network, plan_tree
from repro.sim import DEFAULT_SCHEDULING, Simulator


@dataclass
class MemoryTestbench:
    """A simulator with a DRAM controller and a network of master ports."""

    sim: Simulator
    controller: MemoryController
    monitor: AxiMonitor

    @property
    def store(self) -> MemoryStore:
        return self.controller.store

    def run(self, max_cycles: int, until=None) -> int:
        return self.sim.run(max_cycles, until=until)


def build_memory_testbench(
    master_ports: Sequence[AxiPort],
    slrs: Optional[Sequence[int]] = None,
    tree_config: Optional[TreeConfig] = None,
) -> MemoryTestbench:
    """Wire ``master_ports`` through a tree network to a DDR4 controller.

    The ports sit on ``slrs`` (default: all on SLR 0) and the network
    follows ``tree_config`` (default: ``TreeConfig()``); the simulator runs
    :data:`repro.sim.DEFAULT_SCHEDULING` (the compiled schedule,
    cycle-exact).  Driving the master ports directly between ``run`` calls
    is safe: a push or pop on a registered channel is committed at the next
    run's entry cycle.
    """
    timing = DDR4_AWS_F1
    slave_port = AxiPort(AxiParams(beat_bytes=timing.col_bytes), "mem", depth=8)
    monitor = AxiMonitor("mem")
    mport = MonitoredAxiPort(slave_port, monitor)
    controller = MemoryController(mport, timing)

    sim = Simulator(scheduling=DEFAULT_SCHEDULING)
    sim.add(controller)
    sim.add(monitor)
    for chan in slave_port.channels():
        sim.register_channel(chan)

    if slrs is None:
        slrs = [0] * len(master_ports)
    child_id_bits = max(p.params.id_bits for p in master_ports)
    plan = plan_tree(tree_config or TreeConfig(), slrs, child_id_bits)
    net = build_network(plan, master_ports, mport)
    net.register_with(sim)
    for port in master_ports:
        for chan in port.channels():
            sim.register_channel(chan)
    return MemoryTestbench(sim, controller, monitor)
