"""SLR-aware tree network planning and construction (Section II-B, Multi-Die Designs).

Beethoven builds a buffer-tree subnetwork per SLR, then bridges the subtrees
toward the SLR that hosts the external memory interface with deep pipeline
buffering, and finally funnels into the controller's narrow ID space.

The tree is decided once, by :func:`plan_tree`, from nothing but each
endpoint's SLR: the plan lists every node (name, SLR, inputs, ID bits, pipe
latency) in construction order and carries the structural statistics
(node/pipe/crossing counts, fanout, depth) that the FPGA resource model
prices.  Costing, routability and reports read the plan;
:func:`build_network` turns the same plan into simulation components when a
design is instantiated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.axi.types import AxiParams, AxiPort
from repro.noc.axi_node import AxiBufferNode, AxiPipe, bits_for
from repro.noc.idmap import IdCompressor
from repro.sim import Component

#: A node input: an endpoint index, or the output port name of an earlier node.
Wire = Union[int, str]


@dataclass(frozen=True)
class NodeSpec:
    """One network component as the planner decided it.

    ``kind`` is ``"node"`` (buffer/arbiter), ``"pipe"`` (SLR bridge) or
    ``"idmap"`` (root ID compressor, which drives the slave, so it has no
    ``port``).  ``slr`` is the die of the output port — for a pipe the
    downstream side, ``up_slr`` the upstream one.  ``id_bits`` is the ID
    width of ``port``; a node's inputs use ``child_id_bits``.
    """

    kind: str
    name: str
    slr: int
    inputs: Tuple[Wire, ...]
    port: Optional[str] = None
    id_bits: int = 0
    child_id_bits: int = 0
    latency: int = 0
    up_slr: int = 0


@dataclass
class TreePlan:
    """The decided network: node specs in construction order plus the
    structure report used for costing."""

    port_depth: int
    nodes: List[NodeSpec] = field(default_factory=list)
    n_nodes: int = 0
    n_pipes: int = 0
    n_crossings: int = 0
    depth: int = 0
    max_fanout: int = 0
    nodes_per_slr: Dict[int, int] = field(default_factory=dict)


@dataclass
class BuiltNetwork:
    """The simulation components a :class:`TreePlan` was built into."""

    components: List[Component] = field(default_factory=list)
    interior_ports: List[AxiPort] = field(default_factory=list)
    # SLR placement records, consumed by the distributed partitioner
    # (repro.dist): which die each network component / interior port lives
    # on, and for each AxiPipe the (upstream slr, downstream slr) pair it
    # spans.  Keyed by id() — the objects themselves are the identity.
    component_slr: Dict[int, int] = field(default_factory=dict)
    port_slr: Dict[int, int] = field(default_factory=dict)
    pipe_sides: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def register_with(self, sim) -> None:
        # Interior-port channels are registered after the node components
        # that react to them; that is fine for compiled scheduling because
        # the tick program builds channel->component wake subscriptions
        # lazily at the first run(), when all registrations are complete.
        for comp in self.components:
            sim.add(comp)
        for port in self.interior_ports:
            for chan in port.channels():
                sim.register_channel(chan)


@dataclass(frozen=True)
class TreeConfig:
    """Elaboration knobs a platform exposes (paper: 'network elaboration
    knobs, e.g. maximum supported degree of crossbars')."""

    fanout: int = 8
    interior_depth: int = 4
    slr_crossing_latency: int = 4
    slr_aware: bool = True


def plan_tree(
    config: TreeConfig,
    endpoint_slrs: Sequence[int],
    child_id_bits: int,
    root_slr: int = 0,
) -> TreePlan:
    """Decide the network from endpoints (given by SLR) to the slave.

    With ``slr_aware`` unset, all endpoints are thrown into one flat
    arbiter regardless of placement — the naive configuration the paper
    reports as consistently failing timing; the FPGA model penalises its
    fanout, and here it still *functions*, just without crossing buffers.
    """
    if not endpoint_slrs:
        raise ValueError("network needs at least one endpoint")
    plan = TreePlan(port_depth=config.interior_depth)
    counter = itertools.count(1)

    def fresh(prefix: str) -> str:
        return f"{prefix}{next(counter)}"

    fanout = max(2, config.fanout)
    if config.slr_aware:
        by_slr: Dict[int, List[Wire]] = {}
        for i, slr in enumerate(endpoint_slrs):
            by_slr.setdefault(slr, []).append(i)
        slr_roots: List[Wire] = []
        root_bits = child_id_bits
        for slr in sorted(by_slr):
            wire, bits, depth = _plan_subtree(
                plan, fresh, fanout, by_slr[slr], child_id_bits, slr, f"slr{slr}"
            )
            plan.depth = max(plan.depth, depth)
            root_bits = max(root_bits, bits)
            if slr != root_slr:
                port = fresh("bridge")
                plan.nodes.append(
                    NodeSpec("pipe", fresh("xslr"), root_slr, (wire,), port, bits,
                             latency=config.slr_crossing_latency, up_slr=slr)
                )
                plan.n_pipes += 1
                plan.n_crossings += abs(slr - root_slr)
                wire = port
            slr_roots.append(wire)
        wire, root_bits, depth = _plan_subtree(
            plan, fresh, fanout, slr_roots, root_bits, root_slr, "root"
        )
        plan.depth += depth
    else:
        n = len(endpoint_slrs)
        wire = 0
        if n > 1:
            wire = fresh("flat")
            # Priced in the interconnect total, but on no SLR's share.
            plan.nodes.append(
                NodeSpec("node", "flatnode", root_slr, tuple(range(n)), wire,
                         child_id_bits + bits_for(n), child_id_bits)
            )
            plan.n_nodes += 1
            plan.max_fanout = n
            plan.depth = 1
    plan.nodes.append(NodeSpec("idmap", fresh("idmap"), root_slr, (wire,)))
    return plan


def _plan_subtree(
    plan: TreePlan,
    fresh: Callable[[str], str],
    fanout: int,
    inputs: List[Wire],
    child_bits: int,
    slr: int,
    prefix: str,
) -> Tuple[Wire, int, int]:
    """Reduce ``inputs`` to one wire; returns (wire, id_bits, depth)."""
    if len(inputs) == 1:
        return inputs[0], child_bits, 0
    groups = [inputs[i : i + fanout] for i in range(0, len(inputs), fanout)]
    out_bits = child_bits + bits_for(max(len(g) for g in groups))
    outputs: List[Wire] = []
    for group in groups:
        port = fresh(f"{prefix}.l")
        plan.nodes.append(
            NodeSpec("node", fresh(f"{prefix}.n"), slr, tuple(group), port, out_bits, child_bits)
        )
        plan.n_nodes += 1
        plan.max_fanout = max(plan.max_fanout, len(group))
        plan.nodes_per_slr[slr] = plan.nodes_per_slr.get(slr, 0) + 1
        outputs.append(port)
    wire, bits, depth = _plan_subtree(plan, fresh, fanout, outputs, out_bits, slr, prefix)
    return wire, bits, depth + 1


def build_network(plan: TreePlan, ports: Sequence[AxiPort], target) -> BuiltNetwork:
    """Construct ``plan`` over the endpoint ``ports``, rooted at ``target``."""
    ep = ports[0].params
    net = BuiltNetwork()
    wires: Dict[Wire, AxiPort] = dict(enumerate(ports))
    for spec in plan.nodes:
        inputs = [wires[w] for w in spec.inputs]
        if spec.kind == "idmap":
            comp = IdCompressor(inputs[0], target, spec.name)
        else:
            params = AxiParams(
                beat_bytes=ep.beat_bytes,
                id_bits=spec.id_bits,
                addr_bits=ep.addr_bits,
                max_burst_beats=ep.max_burst_beats,
            )
            port = AxiPort(params, spec.port, depth=plan.port_depth)
            if spec.kind == "pipe":
                comp = AxiPipe(inputs[0], port, spec.latency, spec.name)
                net.pipe_sides[id(comp)] = (spec.up_slr, spec.slr)
            else:
                comp = AxiBufferNode(inputs, port, spec.child_id_bits, spec.name)
            wires[spec.port] = port
            net.interior_ports.append(port)
            net.port_slr[id(port)] = spec.slr
        net.components.append(comp)
        net.component_slr[id(comp)] = spec.slr
    return net
