"""AxiPipe edge cases the sharded-simulation cut contract relies on.

The partitioner (``repro.dist``) cuts designs only at fixed-latency
``AxiPipe`` delay lines.  Three properties make that sound:

* a zero-latency pipe offers no lookahead, so it must be rejected as a cut
  point (it may only ever live inside one partition);
* the split bridge halves replicate the pipe's same-cycle push/pop ordering
  exactly (one item per channel per cycle, flow-controlled drain);
* simulation windows compose: running ``N`` cycles as arbitrary ``run(n)``
  segments is bit-identical to one ``run(N)`` — which is what lets the
  supervisor chop time into slices at all.
"""

import random

import pytest

from repro.axi.types import ARReq, AxiParams, AxiPort
from repro.dist import BridgeEgress, BridgeIngress, DistConfig, DistError
from repro.noc.axi_node import AxiPipe
from repro.sim import NEVER, SCHEDULING_MODES, ChannelQueue, Component, Simulator

PARAMS = AxiParams(beat_bytes=64, id_bits=6, addr_bits=34, max_burst_beats=64)


# --------------------------------------------------------------- latency = 0
def test_bridge_egress_rejects_zero_latency():
    src = ChannelQueue(4, "src")
    with pytest.raises(ValueError, match="latency >= 1"):
        BridgeEgress("mem:x:fwd", "eg", 0, [("ar", src)])


def test_zero_latency_crossing_rejected_as_cut_point():
    """A device whose SLR crossings are zero-latency cannot be sharded."""
    from repro.baselines.spin_core import spin_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import multi_die_platform

    with pytest.raises(DistError, match="latency"):
        BeethovenBuild(
            spin_config(4),
            multi_die_platform(2, slr_crossing_latency=0),
            distributed=DistConfig(n_workers=2),
        )


def test_zero_latency_pipe_still_fine_unsharded():
    """AxiPipe itself accepts latency=0 — only the *cut* rejects it."""
    up = AxiPort(PARAMS, "up")
    down = AxiPort(PARAMS, "down")
    AxiPipe(up, down, latency=0)


# ------------------------------------------- split bridge vs stock AxiPipe
class _Driver(Component):
    """Pushes a scripted schedule of AR requests into a channel."""

    def __init__(self, chan, schedule):
        super().__init__("driver")
        self.chan = chan
        self.schedule = sorted(schedule, key=lambda entry: entry[0])
        self._i = 0

    def tick(self, cycle):
        while (
            self._i < len(self.schedule)
            and self.schedule[self._i][0] <= cycle
            and self.chan.can_push()
        ):
            _c, req = self.schedule[self._i]
            self.chan.push(req)
            self._i += 1

    def next_event(self, cycle):
        if self._i < len(self.schedule):
            return max(cycle, self.schedule[self._i][0])
        return NEVER


class _Sink(Component):
    """Pops from a channel at a scripted per-cycle rate, logging (cycle, id)."""

    def __init__(self, chan, stall_cycles=frozenset()):
        super().__init__("sink")
        self.chan = chan
        self.stall_cycles = stall_cycles
        self.log = []

    def tick(self, cycle):
        if cycle in self.stall_cycles:
            return
        if self.chan.can_pop():
            self.log.append((cycle, self.chan.pop().axi_id))

    def next_event(self, cycle):
        return cycle  # always-on consumer; simplest correct hint


def _run_pipe(schedule, stalls, latency=3, cycles=120):
    """Stock AxiPipe: driver -> up.ar -> pipe -> down.ar -> sink."""
    sim = Simulator()
    up = AxiPort(PARAMS, "up")
    down = AxiPort(PARAMS, "down")
    pipe = AxiPipe(up, down, latency=latency)
    driver = _Driver(up.ar, schedule)
    sink = _Sink(down.ar, stalls)
    for comp in (driver, pipe, sink):
        sim.add(comp)
    for chan in list(up.channels()) + list(down.channels()):
        sim.register_channel(chan)
    sim.run(cycles)
    return sink.log


def _run_bridge(schedule, stalls, latency=3, cycles=120):
    """Split-bridge halves on local transport over the same traffic."""
    sim = Simulator()
    src = ChannelQueue(4, "up.ar")
    dst = ChannelQueue(4, "down.ar")
    egress = BridgeEgress("mem:t:fwd", "eg", latency, [("ar", src)])
    ingress = BridgeIngress(
        "mem:t:fwd", "ing", [("ar", lambda _c, item: dst.push(item), dst)]
    )
    egress.peer = ingress
    driver = _Driver(src, schedule)
    sink = _Sink(dst, stalls)
    for comp in (driver, egress, ingress, sink):
        sim.add(comp)
    for chan in (src, dst):
        sim.register_channel(chan)
    sim.run(cycles)
    return sink.log


def test_split_bridge_matches_stock_pipe_delivery():
    """Same traffic, same stalls: split halves deliver at identical cycles.

    The schedule includes same-cycle bursts (several items maturing back to
    back) and sink stalls that force the flow-control guard to hold items —
    both orderings must match the stock pipe bit-for-bit.
    """
    rng = random.Random(7)
    schedule = [
        (rng.randrange(0, 40), ARReq(axi_id=i % 4, addr=64 * i, length=1))
        for i in range(30)
    ]
    stalls = frozenset(rng.randrange(0, 80) for _ in range(25))
    assert _run_pipe(schedule, stalls) == _run_bridge(schedule, stalls)


def test_bridge_pops_at_most_one_item_per_channel_per_cycle():
    sim = Simulator()
    src = ChannelQueue(4, "src")
    dst = ChannelQueue(4, "dst")
    egress = BridgeEgress("mem:t:fwd", "eg", 2, [("ar", src)])
    ingress = BridgeIngress(
        "mem:t:fwd", "ing", [("ar", lambda _c, item: dst.push(item), dst)]
    )
    egress.peer = ingress
    sim.add(egress)
    sim.add(ingress)
    sim.register_channel(src)
    sim.register_channel(dst)
    for i in range(3):
        src.push(ARReq(axi_id=i, addr=0, length=1))
    sim.run(3)
    # The three items become visible at cycle 1 and drain one per cycle
    # (the stock pipe's ingest rate), so cycles 1 and 2 move exactly two
    # across; with latency 2 neither has matured out of the delay line yet.
    assert egress.items_sent == 2
    assert ingress.in_flight() == 2


# ------------------------------------------------------- slice composition
def _drive(sim_run, latency=4, total=160, seed=11, scheduling="naive"):
    """Build the pipe micro-system and advance it via ``sim_run(sim, total)``."""
    rng = random.Random(seed)
    schedule = [
        (rng.randrange(0, total - 40), ARReq(axi_id=i % 8, addr=64 * i, length=1))
        for i in range(60)
    ]
    stalls = frozenset(rng.randrange(0, total) for _ in range(40))
    sim = Simulator(scheduling=scheduling)
    up = AxiPort(PARAMS, "up")
    down = AxiPort(PARAMS, "down")
    pipe = AxiPipe(up, down, latency=latency)
    driver = _Driver(up.ar, schedule)
    sink = _Sink(down.ar, stalls)
    for comp in (driver, pipe, sink):
        sim.add(comp)
    for chan in list(up.channels()) + list(down.channels()):
        sim.register_channel(chan)
    sim_run(sim, total)
    return sink.log, sim.cycle


@pytest.mark.parametrize("scheduling", SCHEDULING_MODES)
def test_sliced_runs_compose_bit_identically(scheduling):
    """Property: any slicing of run(N) into run(n) segments is bit-identical.

    This is the kernel-level fact the conservative supervisor builds on: a
    slice barrier is just an early ``run()`` return, never an observable
    event inside the model.
    """
    def one_shot(sim, total):
        sim.run(total)

    rng = random.Random(0xC0FFEE)

    def sliced(sim, total):
        done = 0
        while done < total:
            width = min(rng.randrange(1, 9), total - done)
            sim.run_slice(width)
            done += width

    ref_log, ref_cycle = _drive(one_shot, scheduling=scheduling)
    for trial in range(3):
        log, cycle = _drive(sliced, scheduling=scheduling)
        assert log == ref_log
        assert cycle == ref_cycle
