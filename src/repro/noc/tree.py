"""SLR-aware tree network construction (Section II-B, Multi-Die Designs).

Beethoven builds a buffer-tree subnetwork per SLR, then bridges the subtrees
toward the SLR that hosts the external memory interface with deep pipeline
buffering, and finally funnels into the controller's narrow ID space.  The
builder here does exactly that over the simulation components and reports the
structural statistics (node/pipe/link counts, fanouts, depth) that the FPGA
resource model prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.axi.types import AxiParams, AxiPort
from repro.noc.axi_node import AxiBufferNode, AxiPipe, bits_for
from repro.noc.idmap import IdCompressor
from repro.sim import Component


@dataclass
class BuiltNetwork:
    """A constructed network plus the structure report used for costing."""

    components: List[Component] = field(default_factory=list)
    interior_ports: List[AxiPort] = field(default_factory=list)
    n_nodes: int = 0
    n_pipes: int = 0
    n_crossings: int = 0
    depth: int = 0
    max_fanout: int = 0
    nodes_per_slr: Dict[int, int] = field(default_factory=dict)
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


class TreeBuilder:
    """Builds the memory-side AXI network from endpoint ports to a slave."""

    def __init__(self, config: TreeConfig, endpoint_params: AxiParams) -> None:
        self.config = config
        self.endpoint_params = endpoint_params
        self._name_counter = 0

    def _fresh_name(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def _interior_params(self, id_bits: int) -> AxiParams:
        ep = self.endpoint_params
        return AxiParams(
            beat_bytes=ep.beat_bytes,
            id_bits=id_bits,
            addr_bits=ep.addr_bits,
            max_burst_beats=ep.max_burst_beats,
        )

    def _build_subtree(
        self,
        ports: Sequence[AxiPort],
        child_id_bits: int,
        net: BuiltNetwork,
        slr: int,
        prefix: str,
    ) -> Tuple[AxiPort, int, int]:
        """Reduce ``ports`` to one port; returns (port, id_bits, depth)."""
        if len(ports) == 1:
            return ports[0], child_id_bits, 0
        fanout = max(2, self.config.fanout)
        groups = [ports[i : i + fanout] for i in range(0, len(ports), fanout)]
        next_ports: List[AxiPort] = []
        out_bits = child_id_bits + bits_for(max(len(g) for g in groups))
        for group in groups:
            down = AxiPort(
                self._interior_params(out_bits),
                self._fresh_name(f"{prefix}.l"),
                depth=self.config.interior_depth,
            )
            node = AxiBufferNode(list(group), down, child_id_bits, self._fresh_name(f"{prefix}.n"))
            net.components.append(node)
            net.interior_ports.append(down)
            net.component_slr[id(node)] = slr
            net.port_slr[id(down)] = slr
            net.n_nodes += 1
            net.max_fanout = max(net.max_fanout, len(group))
            net.nodes_per_slr[slr] = net.nodes_per_slr.get(slr, 0) + 1
            next_ports.append(down)
        port, bits, depth = self._build_subtree(next_ports, out_bits, net, slr, prefix)
        return port, bits, depth + 1

    def build(
        self,
        endpoints: Sequence[Tuple[AxiPort, int]],
        target,
        child_id_bits: int,
        root_slr: int = 0,
    ) -> BuiltNetwork:
        """Connect ``endpoints`` (port, slr) to the slave ``target``.

        With ``slr_aware`` unset, all endpoints are thrown into one flat
        arbiter regardless of placement — the naive configuration the paper
        reports as consistently failing timing; the FPGA model penalises its
        fanout, and here it still *functions*, just without crossing buffers.
        """
        if not endpoints:
            raise ValueError("network needs at least one endpoint")
        net = BuiltNetwork()
        if self.config.slr_aware:
            by_slr: Dict[int, List[AxiPort]] = {}
            for port, slr in endpoints:
                by_slr.setdefault(slr, []).append(port)
            slr_roots: List[AxiPort] = []
            root_bits = child_id_bits
            for slr in sorted(by_slr):
                sub_port, bits, depth = self._build_subtree(
                    by_slr[slr], child_id_bits, net, slr, f"slr{slr}"
                )
                net.depth = max(net.depth, depth)
                root_bits = max(root_bits, bits)
                if slr != root_slr:
                    bridged = AxiPort(
                        self._interior_params(bits),
                        self._fresh_name("bridge"),
                        depth=self.config.interior_depth,
                    )
                    pipe = AxiPipe(
                        sub_port,
                        bridged,
                        self.config.slr_crossing_latency,
                        self._fresh_name("xslr"),
                    )
                    net.components.append(pipe)
                    net.interior_ports.append(bridged)
                    # The bridged (downstream) port lives on the root die;
                    # the pipe itself spans the crossing.
                    net.port_slr[id(bridged)] = root_slr
                    net.pipe_sides[id(pipe)] = (slr, root_slr)
                    net.n_pipes += 1
                    net.n_crossings += abs(slr - root_slr)
                    sub_port = bridged
                slr_roots.append(sub_port)
            root_port, root_bits, depth = self._build_subtree(
                slr_roots, root_bits, net, root_slr, "root"
            )
            net.depth = max(net.depth, net.depth + depth)
        else:
            ports = [p for p, _slr in endpoints]
            root_bits = child_id_bits + bits_for(len(ports))
            if len(ports) > 1:
                root_port = AxiPort(
                    self._interior_params(root_bits),
                    self._fresh_name("flat"),
                    depth=self.config.interior_depth,
                )
                node = AxiBufferNode(ports, root_port, child_id_bits, "flatnode")
                net.components.append(node)
                net.interior_ports.append(root_port)
                net.component_slr[id(node)] = root_slr
                net.port_slr[id(root_port)] = root_slr
                net.n_nodes += 1
                net.max_fanout = len(ports)
                net.depth = 1
            else:
                root_port = ports[0]
        compressor = IdCompressor(root_port, target, self._fresh_name("idmap"))
        net.components.append(compressor)
        net.component_slr[id(compressor)] = root_slr
        return net
