"""Tests for the generated on-chip networks."""

import dataclasses

import pytest

from repro.axi import AxiParams, AxiPort
from repro.axi.types import ARReq, AWReq, BResp, RBeat, WBeat
from repro.memory import MasterTuning, Reader, ReadRequest, Writer, WriteRequest
from repro.noc import (
    AxiBufferNode,
    AxiPipe,
    IdCompressor,
    TreeConfig,
    bits_for,
    build_network,
    plan_tree,
)
from repro.platforms import multi_die_platform
from repro.sim import SCHEDULING_MODES, Component, SimulationError, Simulator
from repro.testing import build_memory_testbench

PARAMS = AxiParams()


def test_bits_for():
    assert bits_for(1) == 0
    assert bits_for(2) == 1
    assert bits_for(8) == 3
    assert bits_for(9) == 4


class _StreamDriver(Component):
    def __init__(self, reader, addr, length):
        super().__init__("drv")
        self.reader = reader
        self.addr = addr
        self.length = length
        self.sent = False
        self.received = bytearray()

    def tick(self, cycle):
        if not self.sent and self.reader.request.can_push():
            self.reader.request.push(ReadRequest(self.addr, self.length))
            self.sent = True
        while self.reader.data.can_pop():
            self.received.extend(self.reader.data.pop())


@pytest.mark.parametrize("n_readers,fanout", [(3, 2), (8, 4), (12, 8)])
def test_tree_delivers_all_streams(n_readers, fanout):
    readers = [Reader(f"r{i}", 64, PARAMS) for i in range(n_readers)]
    tb = build_memory_testbench(
        [r.port for r in readers],
        tree_config=TreeConfig(fanout=fanout),
    )
    patterns = []
    drivers = []
    for i, reader in enumerate(readers):
        base = i * 0x10000
        pat = bytes(((i + 1) * j) % 256 for j in range(4096))
        tb.store.write(base, pat)
        patterns.append(pat)
        drivers.append(_StreamDriver(reader, base, 4096))
        tb.sim.add(reader)
        tb.sim.add(drivers[-1])
    tb.run(200000, until=lambda: all(len(d.received) >= 4096 for d in drivers))
    for drv, pat in zip(drivers, patterns):
        assert bytes(drv.received) == pat


def test_slr_aware_tree_builds_bridges():
    ports = [AxiPort(PARAMS, f"p{i}") for i in range(6)]
    config = TreeConfig(fanout=4, slr_crossing_latency=4)
    from repro.axi import AxiMonitor, MonitoredAxiPort

    target = MonitoredAxiPort(AxiPort(PARAMS, "mem"), AxiMonitor("mem"))
    plan = plan_tree(config, [i % 3 for i in range(6)], child_id_bits=2, root_slr=0)
    assert plan.n_pipes == 2  # SLR1 and SLR2 each bridge to SLR0
    assert plan.n_nodes >= 3  # one subtree node per SLR at least
    assert plan.max_fanout <= 4
    pipes = [spec for spec in plan.nodes if spec.kind == "pipe"]
    assert [(p.up_slr, p.slr, p.latency) for p in pipes] == [(1, 0, 4), (2, 0, 4)]
    # The built network is the plan, component for component.
    net = build_network(plan, ports, target)
    kinds = {AxiBufferNode: "node", AxiPipe: "pipe", IdCompressor: "idmap"}
    assert [(kinds[type(c)], c.name) for c in net.components] == [
        (spec.kind, spec.name) for spec in plan.nodes
    ]
    assert [p.name for p in net.interior_ports] == [
        spec.port for spec in plan.nodes if spec.port is not None
    ]


def test_flat_network_single_arbiter():
    ports = [AxiPort(PARAMS, f"p{i}") for i in range(10)]
    from repro.axi import AxiMonitor, MonitoredAxiPort

    target = MonitoredAxiPort(AxiPort(PARAMS, "mem"), AxiMonitor("mem"))
    plan = plan_tree(TreeConfig(slr_aware=False), [0] * 10, child_id_bits=2)
    assert plan.n_nodes == 1
    assert plan.max_fanout == 10
    assert plan.n_pipes == 0
    net = build_network(plan, ports, target)
    assert net.components[0].upstreams == ports


def test_mixed_readers_writers_share_network():
    reader = Reader("r", 64, PARAMS)
    writer = Writer("w", 64, PARAMS)
    tb = build_memory_testbench([reader.port, writer.port], slrs=[0, 2])
    pattern = bytes(range(256)) * 8
    tb.store.write(0, pattern)

    class Copier(Component):
        def __init__(self):
            super().__init__("copier")
            self.state = 0

        def tick(self, cycle):
            if self.state == 0:
                reader.request.push(ReadRequest(0, 2048))
                writer.request.push(WriteRequest(0x40000, 2048))
                self.state = 1
            if reader.data.can_pop() and writer.data.can_push():
                writer.data.push(reader.data.pop())
            if writer.done.can_pop():
                writer.done.pop()
                self.state = 2

    cop = Copier()
    tb.sim.add(reader)
    tb.sim.add(writer)
    tb.sim.add(cop)
    tb.run(100000, until=lambda: cop.state == 2)
    assert tb.store.read(0x40000, 2048) == pattern


def test_id_compression_preserves_ordering_pressure():
    """Many masters folded onto few controller IDs still all complete."""
    tuning = MasterTuning(n_axi_ids=4, max_in_flight=4)
    readers = [Reader(f"r{i}", 64, PARAMS, tuning) for i in range(6)]
    tb = build_memory_testbench([r.port for r in readers])
    drivers = []
    for i, reader in enumerate(readers):
        tb.store.write(i * 0x8000, bytes([i + 1] * 8192))
        drivers.append(_StreamDriver(reader, i * 0x8000, 8192))
        tb.sim.add(reader)
        tb.sim.add(drivers[-1])
    tb.run(400000, until=lambda: all(len(d.received) >= 8192 for d in drivers))
    for i, drv in enumerate(drivers):
        assert bytes(drv.received) == bytes([i + 1] * 8192)
    assert tb.monitor.outstanding() == 0


def _hop_sim(mode, hop, ports):
    """``hop`` alone in a simulator, with every channel of ``ports``."""
    sim = Simulator(scheduling=mode)
    sim.add(hop)
    for port in ports:
        for chan in port.channels():
            sim.register_channel(chan)
    return sim


def _drain(chan) -> list:
    items = []
    while chan.can_pop():
        items.append(chan.pop())
    return items


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_buffer_node_grants_round_robin_and_locks_w_to_aw_order(mode):
    """Three upstreams with two one-beat bursts each queued on AR and AW:
    the node grants one request per cycle per channel in round-robin order,
    tags each ID with its upstream index above the child bits, and forwards
    W beats in exactly the granted AW order."""
    ups = [AxiPort(PARAMS, f"u{i}") for i in range(3)]
    down = AxiPort(PARAMS, "down")
    sim = _hop_sim(mode, AxiBufferNode(ups, down, child_id_bits=2), [*ups, down])
    for i, up in enumerate(ups):
        for k in range(2):
            up.ar.push(ARReq(k, 0x1000 * i + 64 * k, 1))
            up.aw.push(AWReq(k, 0x1000 * i + 64 * k, 1))
            up.w.push(WBeat(bytes([i]) * 64, True))
    ar, aw, w = [], [], []
    while sim.cycle < 20:
        sim.run(1)
        ar += [req.axi_id for req in _drain(down.ar)]
        aw += [req.axi_id for req in _drain(down.aw)]
        w += [beat.data[0] for beat in _drain(down.w)]
    assert ar == aw == [(i << 2) | k for k in range(2) for i in range(3)]
    assert w == [0, 1, 2, 0, 1, 2]


#: Cycle at which each side starts draining what the node forwarded to it:
#: the downstream sink takes AR, AW and W, upstream 0 takes R and B.
RELEASE = {"ar": 6, "aw": 9, "w": 12, "r": 15, "b": 19}


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_buffer_node_stall_windows(mode):
    """Hand-timed stall accounting on a 3-upstream node.

    Every upstream queues one AR and one two-beat AW with its W beats, and
    two R beats and two B responses wait for upstream 0.  The sink's AR, AW
    and W and upstream 0's R and B hold one item each, and each side is
    drained from its ``RELEASE`` cycle ``T`` on (between cycles, as a
    registered sink pops).  Staged before cycle 0, the first items move at
    cycle 1; every window opens at cycle 2 with the receiver full and an item
    pending, and the release pop is committed at the end of cycle ``T``, so
    the node sees room at ``T + 1``: ``T - 1`` stalled cycles.  After that a
    depth-1 receiver drained between cycles takes an item every other cycle,
    so each item after the first one out stalls one cycle more: AR and AW
    have two upstreams left (``T - 1 + 1``), W has five beats left
    (``T - 1 + 4``), and R and B one item each (``T - 1``)."""
    ups = [AxiPort(PARAMS, f"u{i}") for i in range(3)]
    down = AxiPort(PARAMS, "down")
    for chan in (down.ar, down.aw, down.w, ups[0].r, ups[0].b):
        chan.capacity = 1
    node = AxiBufferNode(ups, down, child_id_bits=2)
    sim = _hop_sim(mode, node, [*ups, down])
    for i, up in enumerate(ups):
        up.ar.push(ARReq(0, 0x1000 * i, 1))
        up.aw.push(AWReq(0, 0x1000 * i, 2))
        up.w.push(WBeat(bytes(64), False))
        up.w.push(WBeat(bytes(64), True))
    for _ in range(2):
        down.r.push((0, RBeat(bytes(64), True)))
        down.b.push((0, BResp()))
    sinks = {"ar": down.ar, "aw": down.aw, "w": down.w, "r": ups[0].r, "b": ups[0].b}
    while sim.cycle < 40:
        sim.run(1)
        for ch, chan in sinks.items():
            if sim.cycle >= RELEASE[ch]:
                _drain(chan)
    t = RELEASE
    assert node.stall_cycles == {
        "ar": t["ar"] - 1 + 1,
        "aw": t["aw"] - 1 + 1,
        "w": t["w"] - 1 + 4,
        "r": t["r"] - 1,
        "b": t["b"] - 1,
    }
    assert node.forwarded == {"ar": 3, "aw": 3, "w": 6, "r": 2, "b": 2}
    assert all(since == -1 for since in node._stall_since.values())


def _sole_consumer_channels(hop):
    """The channels a hop's tick tests by the truthiness of ``_items``:
    every one it pops, upstream AR, AW and W and downstream R and B."""
    ups = hop.upstreams if isinstance(hop, AxiBufferNode) else [hop.up]
    d = hop.down.port
    return [*(c for u in ups for c in (u.ar, u.aw, u.w)), d.r, d.b]


def _stream_design(active, size):
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import SimulationPlatform

    build = BeethovenBuild(memcpy_config(n_cores=32), SimulationPlatform(), scheduling="naive")
    return build, [(core, size) for core in range(active)]


def _faulty_design(active, size):
    from repro.core.build import BeethovenBuild
    from repro.faults import FaultPlan
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform

    plan = FaultPlan(seed=5, axi_r_corrupt_rate=0.05, dram_read_flip_rate=0.02,
                     max_faults_per_site=4)
    build = BeethovenBuild(memcpy_config(n_cores=4), AWSF1Platform(), scheduling="naive",
                           faults=plan)
    return build, [(core, size) for core in range(active)]


@pytest.mark.parametrize(
    "make, active, size",
    [(_stream_design, 32, 2048), (_stream_design, 1, 32768), (_faulty_design, 4, 8192)],
    ids=["memcpy32_dense", "memcpy32_sparse", "memcpy4_faults"],
)
def test_every_hop_is_the_one_consumer_of_what_it_pops(make, active, size):
    """The rule the hop bodies rest on: a channel popped by exactly one
    component has ``_pop_count == 0`` whenever that component's tick starts
    (a commit resets it, and a consumer ticks at most once per cycle), so
    the tick may read "has a visible item" off the bound ``_items`` list.
    Every hop tick is wrapped and checked at entry on the stream shapes
    and on a design whose buffer nodes corrupt and drop responses."""
    from repro.runtime import FpgaHandle

    build, copies = make(active, size)
    design = build.design
    sim = design.sim
    entered = dict.fromkeys((AxiBufferNode, AxiPipe, IdCompressor), 0)

    def guard(hop):
        body, chans = hop.tick_body(), _sole_consumer_channels(hop)

        def tick(cycle):
            busy = [c.name for c in chans if c._pop_count]
            assert not busy, f"{hop.name} at cycle {cycle}: {busy} already popped"
            entered[type(hop)] += 1
            body(cycle)

        hop._tick_body = tick

    for comp in sim._components:
        if type(comp) in entered:
            guard(comp)
    handle = FpgaHandle(design)
    src = handle.malloc(size)
    src.write(bytes(range(256)) * (size // 256))
    handle.copy_to_fpga(src)
    futs = [
        handle.call("Memcpy", "memcpy", core, src=src.fpga_addr,
                    dst=handle.malloc(n).fpga_addr, len_bytes=n)
        for core, n in copies
    ]
    while not all(fut.done for fut in futs) and handle.cycle < 20_000:
        handle.run_cycles(200)
    assert all(fut.done for fut in futs)
    assert all(entered.values()), entered
    reads = design.monitor.completed("read")
    assert sum(rec.length for rec in reads) * 64 >= len(copies) * size
    if design.faults is not None:
        assert design.faults.events  # the hooks fired on the guarded path


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_pipe_adds_exactly_its_latency(mode):
    """What an ``AxiPipe`` pops becomes pushable ``latency`` cycles later:
    staged before cycle 0, an item is visible at the pipe at cycle 1 and on
    the far side at ``latency + 2``, requests going down and responses
    coming up alike."""
    latency = 5
    up, down = AxiPort(PARAMS, "up"), AxiPort(PARAMS, "down")
    sim = _hop_sim(mode, AxiPipe(up, down, latency), [up, down])
    up.ar.push(ARReq(1, 0, 1))
    up.aw.push(AWReq(1, 0, 1))
    up.w.push(WBeat(bytes(64), True))
    down.r.push((1, RBeat(bytes(64), True)))
    down.b.push((1, BResp()))
    far = {"ar": down.ar, "aw": down.aw, "w": down.w, "r": up.r, "b": up.b}
    seen = {}
    while sim.cycle < 20:
        seen.update((k, sim.cycle) for k, ch in far.items() if k not in seen and ch.can_pop())
        sim.run(1)
    assert seen == dict.fromkeys(far, latency + 2)


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_id_compressor_folds_ids_and_restores_them(mode):
    """Wide IDs leave on both address lanes as ``wide % n_ids``; each R and
    B response comes back under the wide ID of its request."""
    wide = [5, 6, 7, 12]
    up, down = AxiPort(PARAMS, "up"), AxiPort(AxiParams(id_bits=2), "down")
    sim = _hop_sim(mode, IdCompressor(up, down), [up, down])
    for axi_id in wide:
        up.ar.push(ARReq(axi_id, 0, 1))
        up.aw.push(AWReq(axi_id, 0, 1))
    ars, aws = [], []
    while sim.cycle < 10:
        sim.run(1)
        ars += _drain(down.ar)
        aws += _drain(down.aw)
    assert [req.axi_id for req in ars] == [axi_id % 4 for axi_id in wide]
    assert [req.axi_id for req in aws] == [axi_id % 4 for axi_id in wide]
    for ar, aw in zip(ars, aws):
        down.r.push((ar.axi_id, RBeat(bytes(64), True, ar.tag)))
        down.b.push((aw.axi_id, BResp(True, aw.tag)))
    rs, bs = [], []
    while sim.cycle < 20:
        sim.run(1)
        rs += [axi_id for axi_id, _beat in _drain(up.r)]
        bs += [axi_id for axi_id, _resp in _drain(up.b)]
    assert rs == bs == wide


def test_node_rejects_id_overflow():
    small = AxiParams(id_bits=2)
    ports = [AxiPort(small, f"p{i}") for i in range(4)]
    down = AxiPort(small, "down")
    with pytest.raises(SimulationError, match="ID bits"):
        AxiBufferNode(ports, down, child_id_bits=2)


# ------------------------------------------------------------ tree config
@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: TreeConfig(slr_crossing_latency=-1), "slr_crossing_latency"),
        (lambda: TreeConfig(interior_depth=0), "interior_depth"),
        (lambda: multi_die_platform(2, slr_crossing_latency=-1), "slr_crossing_latency"),
    ],
    ids=["negative_crossing", "zero_depth", "platform_negative_crossing"],
)
def test_tree_config_refuses_values_that_cannot_be_built(make, match):
    """Refused when configured, not at the first simulation of a design
    that was already priced with them."""
    with pytest.raises(ValueError, match=match):
        make()


# ------------------------------------------------------- SLR cut invariant
def check_slr_cuts(plan, endpoint_slrs, config, root_slr):
    """Dies couple only through explicit bridges, read off the plan alone.

    Every non-pipe node's inputs sit on its own SLR (when the tree is
    SLR-aware); every pipe's input sits on its ``up_slr``, a different die
    from its output, and it carries the platform's crossing latency; the
    root subtree sits on the memory interface's SLR.
    """
    slr_of = dict(enumerate(endpoint_slrs))
    for spec in plan.nodes:
        inputs = [slr_of[wire] for wire in spec.inputs]
        if spec.kind == "pipe":
            assert inputs == [spec.up_slr], f"{spec.name}: input not on its up_slr"
            assert spec.up_slr != spec.slr, f"{spec.name}: bridges a die to itself"
            assert spec.latency == config.slr_crossing_latency, (
                f"{spec.name}: latency {spec.latency} is not the platform's "
                f"{config.slr_crossing_latency}"
            )
        elif config.slr_aware:
            assert set(inputs) <= {spec.slr}, f"{spec.name}: unbridged SLR crossing"
        if spec.port is not None:
            slr_of[spec.port] = spec.slr
    root = plan.nodes[-1]
    assert root.kind == "idmap" and root.slr == root_slr, "root off the memory SLR"


def _design_cut(design):
    """The check's inputs for a costed design, read without instantiating."""
    assert not design._instantiated
    slrs = [
        ecore.slr
        for system in design.systems
        for ecore in system.cores
        for _ in system.template_ctx.all_axi_masters()
    ]
    assert len(slrs) == design.n_memory_interfaces
    device = design.platform.device
    root_slr = device.memory_interface_slr if device else 0
    return design.noc_plan, slrs, design.platform.tree_config, root_slr


def _cut_cases():
    from test_costing_pin import DESIGNS

    for name, make in DESIGNS.items():
        if name != "hetero":  # delay cores only: no memory tree
            yield name, lambda make=make: _design_cut(make().design)
    platform = multi_die_platform(4)
    slrs = [i * 4 // 256 for i in range(256)]
    root_slr = platform.device.memory_interface_slr
    yield "plan256_4die", lambda: (
        plan_tree(platform.tree_config, slrs, 2, root_slr), slrs, platform.tree_config, root_slr
    )


CUT_CASES = dict(_cut_cases())
BRIDGED = ["a3x23_f1", "memcpy48_f1", "nw4_f1", "vecadd3_sim", "memcpy4_4die", "plan256_4die"]


@pytest.mark.parametrize("name", sorted(CUT_CASES))
def test_every_slr_crossing_is_a_bridge(name):
    plan, *rest = CUT_CASES[name]()
    check_slr_cuts(plan, *rest)
    # The mutants below run on exactly the cases that have a bridge.
    assert (plan.n_pipes > 0) == (name in BRIDGED)


def _splice_out_a_pipe(plan):
    """The plan with its first bridge removed: its consumer reads the
    upstream die's wire directly."""
    pipe = next(spec for spec in plan.nodes if spec.kind == "pipe")
    (upstream,) = pipe.inputs
    nodes = [
        dataclasses.replace(
            spec, inputs=tuple(upstream if w == pipe.port else w for w in spec.inputs)
        )
        for spec in plan.nodes
        if spec is not pipe
    ]
    return dataclasses.replace(plan, nodes=nodes)


def _detune_a_pipe(plan):
    """The plan with one bridge's latency off the platform's."""
    nodes = list(plan.nodes)
    i = next(i for i, spec in enumerate(nodes) if spec.kind == "pipe")
    nodes[i] = dataclasses.replace(nodes[i], latency=nodes[i].latency + 1)
    return dataclasses.replace(plan, nodes=nodes)


@pytest.mark.parametrize(
    "mutate, match",
    [(_splice_out_a_pipe, "unbridged SLR crossing"), (_detune_a_pipe, "is not the platform's")],
    ids=["spliced_out", "detuned"],
)
@pytest.mark.parametrize("name", BRIDGED)
def test_a_missing_or_detuned_bridge_fails_the_cut_check(name, mutate, match):
    plan, *rest = CUT_CASES[name]()
    with pytest.raises(AssertionError, match=match):
        check_slr_cuts(mutate(plan), *rest)
