"""Partition planning: cut an elaborated design at SLR boundaries.

The transform is **canonical** — it depends only on the design's SLR
structure, never on the worker count:

* every inter-SLR :class:`~repro.noc.axi_node.AxiPipe` is split into four
  bridge halves (forward ar/aw/w egress+ingress, reverse r/b egress+ingress);
* every core on a non-root SLR gets a :class:`~repro.dist.bridge.CommandProxy`
  in the root partition plus a command/response bridge pair at the
  SLR-crossing latency, and the router is attached to the proxy.

The worker count only decides how SLRs are *grouped* onto partitions (and
therefore which bridges cross a partition boundary), so the cycle-level
computation is identical for every ``n_workers`` — that is what makes the
cross-worker-count bit-identity hold by construction.

The lookahead contract: the slice width never exceeds the minimum bridge
latency, so an item popped by an egress during a slice matures no earlier
than the *next* barrier — delivering it into a partition that has already
finished the slice is indistinguishable from delivering it the cycle it was
popped (DESIGN.md, "Sharded simulation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dist.bridge import BridgeEgress, BridgeIngress, CommandProxy
from repro.dist.config import DistConfig, DistError

#: Extra load (in core-equivalents) the root partition carries for the DRAM
#: controller, command frontend and runtime server — biases the grouping so
#: partition 0 gets slightly fewer cores.
_ROOT_INFRA_WEIGHT = 2.0


@dataclass(frozen=True)
class PartitionDescriptor:
    """The cache-key identity of a partitioning (see satellite: fingerprints).

    ``slr_assignment`` maps each SLR to its partition; ``cut_set`` is the
    sorted tuple of bridge ids the transform created.  Two runs with equal
    descriptors execute the same sharded structure.
    """

    n_workers: int
    slice_width: int
    slr_assignment: Tuple[Tuple[int, int], ...]
    cut_set: Tuple[str, ...]


@dataclass
class BridgeSpec:
    """One directed split edge: egress in ``src``, ingress in ``dst``."""

    bridge_id: str
    egress: BridgeEgress
    ingress: BridgeIngress
    src: int
    dst: int

    @property
    def cross_partition(self) -> bool:
        return self.src != self.dst


class PartitionPlan:
    """Everything the registration pass and the engine need about the cut."""

    def __init__(
        self,
        config: DistConfig,
        n_partitions: int,
        slice_width: int,
        partition_of_slr: Dict[int, int],
        root_slrs: Tuple[int, ...],
    ) -> None:
        self.config = config
        self.n_partitions = n_partitions
        self.slice_width = slice_width
        self.partition_of_slr = dict(partition_of_slr)
        self.root_slrs = root_slrs
        #: id(AxiPipe) -> ordered [(half_component, partition)].
        self.pipe_halves: Dict[int, List[Tuple[object, int]]] = {}
        #: (system_id, core_id) -> ordered [(half_component, partition)].
        self.cmd_halves: Dict[Tuple[int, int], List[Tuple[object, int]]] = {}
        #: (system_id, core_id) -> CommandProxy for remote-SLR cores.
        self.proxies: Dict[Tuple[int, int], CommandProxy] = {}
        self.bridges: List[BridgeSpec] = []

    def descriptor(self) -> PartitionDescriptor:
        return PartitionDescriptor(
            n_workers=self.n_partitions,
            slice_width=self.slice_width,
            slr_assignment=tuple(sorted(self.partition_of_slr.items())),
            cut_set=tuple(sorted(spec.bridge_id for spec in self.bridges)),
        )


def _contiguous_grouping(weights: List[float], k: int) -> List[int]:
    """Split ``weights`` into ``k`` contiguous non-empty groups minimising the
    maximum group weight; returns the group index per unit.  Classic linear
    partition DP — unit counts are tiny (one per SLR)."""
    n = len(weights)
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)

    def seg(i: int, j: int) -> float:
        return prefix[j] - prefix[i]

    INF = float("inf")
    # cost[j][i]: minimal max-weight splitting the first i units into j groups.
    cost = [[INF] * (n + 1) for _ in range(k + 1)]
    split = [[0] * (n + 1) for _ in range(k + 1)]
    cost[0][0] = 0.0
    for j in range(1, k + 1):
        for i in range(j, n + 1):
            for m in range(j - 1, i):
                cand = max(cost[j - 1][m], seg(m, i))
                if cand < cost[j][i]:
                    cost[j][i] = cand
                    split[j][i] = m
    groups = [0] * n
    i = n
    for j in range(k, 0, -1):
        m = split[j][i]
        for u in range(m, i):
            groups[u] = j - 1
        i = m
    return groups


def plan_partitions(design, config: DistConfig) -> "PartitionPlan":
    """Compute the SLR grouping and build every bridge half and proxy.

    Runs after the memory network exists (it needs the floorplan and the
    pipes) and before the command network (which attaches the router to the
    proxies this creates).
    """
    from repro.noc.axi_node import AxiPipe

    net = design.network
    device = design.platform.device
    if device is None or device.n_slrs < 2:
        raise DistError(
            "distributed= needs a multi-die platform: single-die designs "
            "have no SLR bridges to cut"
        )
    if net is None or design.noc_plan.n_pipes == 0:
        raise DistError(
            "distributed= found no inter-SLR AxiPipe bridges to cut — the "
            "design's cores all placed on the memory-interface SLR (or the "
            "platform's tree_config is not slr_aware)"
        )
    root_slrs = tuple(sorted({device.memory_interface_slr, device.host_interface_slr}))

    pipes = [c for c in net.components if isinstance(c, AxiPipe)]
    bad = [p.name for p in pipes if p.latency < 1]
    if bad:
        raise DistError(
            f"bridges {bad} have latency=0: a zero-latency pipe gives no "
            "lookahead and cannot be cut — raise the platform's "
            "slr_crossing_latency (or keep the design single-process)"
        )
    cmd_latency = design.platform.tree_config.slr_crossing_latency
    min_latency = min([p.latency for p in pipes] + [cmd_latency])
    slice_width = config.slice_width if config.slice_width is not None else min_latency
    if slice_width > min_latency:
        raise DistError(
            f"slice_width={slice_width} exceeds the minimum bridge latency "
            f"{min_latency}: bridge traffic would arrive after its due cycle"
        )

    # ---- group SLRs onto partitions --------------------------------------
    # Units: the root group (memory + host interface dies, pinned to
    # partition 0) followed by each remaining SLR in order; weights are core
    # counts, with an infrastructure bonus on the root unit.
    cores_on = {slr: 0 for slr in range(device.n_slrs)}
    for system in design.systems:
        for ecore in system.cores:
            cores_on[ecore.slr] = cores_on.get(ecore.slr, 0) + 1
    units: List[List[int]] = [list(root_slrs)]
    for slr in range(device.n_slrs):
        if slr not in root_slrs:
            units.append([slr])
    if config.n_workers > len(units):
        raise DistError(
            f"n_workers={config.n_workers} exceeds the {len(units)} "
            "partitionable SLR groups of this device"
        )
    weights = [
        sum(cores_on.get(slr, 0) for slr in unit) for unit in units
    ]
    weights[0] += _ROOT_INFRA_WEIGHT
    groups = _contiguous_grouping([float(w) for w in weights], config.n_workers)
    partition_of_slr: Dict[int, int] = {}
    for unit, part in zip(units, groups):
        for slr in unit:
            partition_of_slr[slr] = part

    plan = PartitionPlan(
        config, config.n_workers, slice_width, partition_of_slr, root_slrs
    )

    # ---- split every inter-SLR pipe --------------------------------------
    root_part = 0
    for pipe in pipes:
        up_slr, down_slr = net.pipe_sides[id(pipe)]
        src_part = partition_of_slr[up_slr]
        dst_part = partition_of_slr[down_slr]
        up, down, lat = pipe.up, pipe.down, pipe.latency
        fwd_id = f"mem:{pipe.name}:fwd"
        rev_id = f"mem:{pipe.name}:rev"
        noc_path = "noc/" + pipe.name.replace(".", "/")
        fwd_eg = BridgeEgress(
            fwd_id, f"{pipe.name}.fwd.tx", lat,
            [("ar", up.ar), ("aw", up.aw), ("w", up.w)],
        )
        fwd_in = BridgeIngress(
            fwd_id, f"{pipe.name}.fwd.rx",
            [
                ("ar", (lambda cycle, item, lk=down: lk.push_ar(cycle, item)), down.port.ar),
                ("aw", (lambda cycle, item, lk=down: lk.push_aw(cycle, item)), down.port.aw),
                ("w", (lambda cycle, item, lk=down: lk.push_w(cycle, item)), down.port.w),
            ],
            latency=lat,
            in_flight_metrics={"in_flight_ar": "ar", "in_flight_aw": "aw", "in_flight_w": "w"},
            metric_path=noc_path,
        )
        rev_eg = BridgeEgress(
            rev_id, f"{pipe.name}.rev.tx", lat,
            [("r", down.port.r), ("b", down.port.b)],
        )
        rev_in = BridgeIngress(
            rev_id, f"{pipe.name}.rev.rx",
            [
                ("r", (lambda cycle, item, c=up.r: c.push(item)), up.r),
                ("b", (lambda cycle, item, c=up.b: c.push(item)), up.b),
            ],
            in_flight_metrics={"in_flight_r": "r", "in_flight_b": "b"},
            metric_path=noc_path,
        )
        fwd_eg.peer = fwd_in
        rev_eg.peer = rev_in
        plan.pipe_halves[id(pipe)] = [
            (fwd_eg, src_part),
            (fwd_in, dst_part),
            (rev_eg, dst_part),
            (rev_in, src_part),
        ]
        plan.bridges.append(BridgeSpec(fwd_id, fwd_eg, fwd_in, src_part, dst_part))
        plan.bridges.append(BridgeSpec(rev_id, rev_eg, rev_in, dst_part, src_part))

    # ---- command proxies + bridges for remote-SLR cores ------------------
    cmd_lat = cmd_latency
    for system in design.systems:
        for ecore in system.cores:
            if ecore.slr in root_slrs:
                continue
            key = (ecore.system_id, ecore.core_id)
            core_part = partition_of_slr[ecore.slr]
            proxy = CommandProxy(*key)
            adapter = ecore.adapter
            fwd_id = f"cmd:{key[0]}:{key[1]}:fwd"
            rev_id = f"cmd:{key[0]}:{key[1]}:rev"
            fwd_eg = BridgeEgress(
                fwd_id, f"{proxy.name}.fwd.tx", cmd_lat, [("cmd", proxy.cmd_in)]
            )
            fwd_in = BridgeIngress(
                fwd_id, f"{proxy.name}.fwd.rx",
                [("cmd", (lambda cycle, item, c=adapter.cmd_in: c.push(item)), adapter.cmd_in)],
            )
            rev_eg = BridgeEgress(
                rev_id, f"{proxy.name}.rev.tx", cmd_lat, [("resp", adapter.resp_out)]
            )
            rev_in = BridgeIngress(
                rev_id, f"{proxy.name}.rev.rx",
                [("resp", (lambda cycle, item, c=proxy.resp_out: c.push(item)), proxy.resp_out)],
            )
            fwd_eg.peer = fwd_in
            rev_eg.peer = rev_in
            plan.proxies[key] = proxy
            plan.cmd_halves[key] = [
                (fwd_eg, root_part),
                (fwd_in, core_part),
                (rev_eg, core_part),
                (rev_in, root_part),
            ]
            plan.bridges.append(BridgeSpec(fwd_id, fwd_eg, fwd_in, root_part, core_part))
            plan.bridges.append(BridgeSpec(rev_id, rev_eg, rev_in, core_part, root_part))

    return plan


def register_partitioned(design, plan: PartitionPlan, sims) -> None:
    """Mirror ``ElaboratedDesign._register_all`` across the partition sims.

    Every component/channel is registered with exactly one partition's
    simulator, in the same global encounter order as the single-process
    registration (restricted to each partition) — the registered-FIFO channel
    semantics make results independent of tick order, so the restriction
    preserves bit-identity.  Split pipes register their four halves instead
    of the pipe; proxied cores additionally register their command bridge
    halves and the proxy channels (root side).
    """
    part_of_slr = plan.partition_of_slr
    root = sims[0]
    root.add(design.controller)
    root.add(design.monitor)
    for chan in design.mem_mport.port.channels():
        root.register_channel(chan)
    net = design.network
    if net is not None:
        for comp in net.components:
            halves = plan.pipe_halves.get(id(comp))
            if halves is not None:
                for half, part in halves:
                    sims[part].add(half)
            else:
                slr = net.component_slr.get(id(comp))
                part = part_of_slr[slr] if slr is not None else 0
                sims[part].add(comp)
        for port in net.interior_ports:
            slr = net.port_slr.get(id(port))
            part = part_of_slr[slr] if slr is not None else 0
            for chan in port.channels():
                sims[part].register_channel(chan)
    for system in design.systems:
        for ecore in system.cores:
            part = part_of_slr[ecore.slr]
            for comp in ecore.ctx.all_components():
                sims[part].add(comp)
            sims[part].add(ecore.core)
            sims[part].add(ecore.adapter)
            key = (ecore.system_id, ecore.core_id)
            for half, hpart in plan.cmd_halves.get(key, ()):
                sims[hpart].add(half)
            proxy = plan.proxies.get(key)
            if proxy is not None:
                for chan in proxy.channels():
                    root.register_channel(chan)
    for bcast in design._broadcasts:
        part = 0
        for system in design.systems:
            for ecore in system.cores:
                if bcast.name.startswith(ecore.path + "."):
                    part = part_of_slr[ecore.slr]
                    break
        sims[part].add(bcast)
    root.add(design.router)
    root.add(design.mmio)
    _validate_ownership(plan, sims)


def _validate_ownership(plan: PartitionPlan, sims) -> None:
    """No channel may be touched from two partitions.

    Builds the channel -> partition map from what actually got registered,
    then checks every component's wake set (a superset of everything its tick
    reads or probes).  This catches the couplings the cut cannot express —
    intra-core links or broadcasts between cores grouped onto different
    partitions — with a configuration error instead of silent divergence.
    """
    chan_part: Dict[int, int] = {}
    for part, sim in enumerate(sims):
        for chan in sim._channels:
            chan_part.setdefault(id(chan), part)
    for part, sim in enumerate(sims):
        for comp in sim._components:
            for chan in comp.wake_channels():
                owner = chan_part.get(id(chan))
                if owner is not None and owner != part:
                    raise DistError(
                        f"component {comp.name!r} (partition {part}) touches "
                        f"channel {chan.name!r} owned by partition {owner}: "
                        "this coupling crosses the SLR cut (intra-core links "
                        "and broadcasts must stay within one partition group "
                        "— reduce n_workers or co-locate the systems)"
                    )
