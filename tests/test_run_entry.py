"""A ``Simulator.run`` entry and exit cost only what changed since the last.

Between runs, change announces itself: a push or pop on a registered channel
lands in the dirty list (committed at the entry cycle, as naive would) and any
other mutation of a component calls ``request_wake``.  So an entry wakes every
component only for a freshly built schedule (first run, snapshot restore, a
late ``sim.add``) or after ``step()``; channel counters are exact when read
rather than synced at exit; per-slot tick counts are folded when read.  Each
contract is checked under ``compiled`` against ``naive``, and two tick
budgets keep the host path from sliding back to wake-all entries.
"""

from __future__ import annotations

import pytest

from repro.baselines.delay_core import delay_config
from repro.core.build import BeethovenBuild
from repro.kernels.memcpy import memcpy_config
from repro.platforms import AWSF1Platform
from repro.runtime import FpgaHandle
from repro.serve import AcceleratorService
from repro.serve.loadgen import LoadGenerator
from repro.serve.scenarios import hetero_build, profile_loads
from repro.sim import (
    NEVER,
    SCHEDULING_MODES,
    ChannelQueue,
    Component,
    Simulator,
    class_tick_table,
    render_skip_report,
    wake_summary,
)
from repro.snapshot import capture, restore

SKIPPING = SCHEDULING_MODES[1:]


# ------------------------------------------------------------------ models
class Source(Component):
    """Pushes one item at each scheduled cycle (later while ``out`` is full)."""

    def __init__(self, name, out, at):
        super().__init__(name)
        self.out = out
        self.at = list(at)

    def tick(self, cycle):
        if self.at and self.at[0] <= cycle and self.out.can_push():
            self.out.push(self.at.pop(0))

    def next_event(self, cycle):
        return max(cycle, self.at[0]) if self.at else NEVER


class Relay(Component):
    """Holds each item ``delay`` cycles, then forwards it."""

    def __init__(self, name, inp, out, delay):
        super().__init__(name)
        self.inp, self.out, self.delay = inp, out, delay
        self.held = None
        self.ready_at = 0

    def tick(self, cycle):
        if self.held is not None and cycle >= self.ready_at and self.out.can_push():
            self.out.push(self.held)
            self.held = None
        if self.held is None and self.inp.can_pop():
            self.held = self.inp.pop()
            self.ready_at = cycle + self.delay

    def next_event(self, cycle):
        if self.held is not None:
            return max(cycle, self.ready_at)
        return cycle if self.inp.can_pop() else NEVER

    def wake_channels(self):
        return [self.inp, self.out]


class Sink(Component):
    """Pops every visible item and records the cycle."""

    wake_only = True

    def __init__(self, name, inp):
        super().__init__(name)
        self.inp = inp
        self.got = []

    def tick(self, cycle):
        while self.inp.can_pop():
            self.got.append((cycle, self.inp.pop()))

    def next_event(self, cycle):
        return NEVER


def _stats(chan):
    return (chan.total_pushed, chan.total_popped, chan.occupancy_accum,
            chan.cycles_observed, chan.mean_occupancy)


class Probe(Component):
    """Reads every channel's counters from inside a tick at fixed cycles."""

    def __init__(self, chans, at):
        super().__init__("probe")
        self._chans = list(chans)
        self.at = sorted(at)
        self.seen = []

    def tick(self, cycle):
        if cycle in self.at:
            self.seen.append((cycle, [_stats(c) for c in self._chans]))

    def next_event(self, cycle):
        return next((c for c in self.at if c >= cycle), NEVER)

    def wake_channels(self):
        return []


def _pipeline(mode, probe_at=()):
    sim = Simulator(scheduling=mode)
    chans = [ChannelQueue(2, f"c{i}") for i in range(4)]
    sim.add(Source("src", chans[0], [3, 4, 5, 40, 41, 200]))
    sim.add(Relay("r1", chans[0], chans[1], 5))
    sim.add(Relay("r2", chans[1], chans[2], 17))
    sim.add(Sink("sink", chans[2]))
    sim.add(Sink("tail", chans[3]))  # fed only by the host between runs
    for chan in chans:
        sim.register_channel(chan)
    if probe_at:
        sim.add(Probe(chans, probe_at))
    return sim, chans


def _drive(sim, chans):
    """Runs of mixed length, with the host pushing and popping in between."""
    sim.run(30)
    chans[3].push("h0")
    sim.run(1)
    sim.run(60)
    chans[3].push("h1")
    chans[3].push("h2")
    sim.run(500)


def _ticks(sim):
    return {c.name: sim.component_ticks(c) for c in sim._components}


# --------------------------------------------------------------- wake rule
@pytest.mark.parametrize("mode", SKIPPING)
def test_a_run_that_only_lets_time_pass_ticks_nothing(mode):
    """Once settled, letting time pass wakes nobody: only the DRAM
    controller's own refresh edges tick, and the entry wakes no slot."""
    build = BeethovenBuild(delay_config(3, 40), AWSF1Platform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    sim = build.design.sim
    handle.call("Delay", "run", 1, job=1).get()
    handle.run_cycles(100)
    before, wakes, entries = _ticks(sim), sim.entry_wakes, sim.run_entries
    handle.run_cycles(5_000)
    after = _ticks(sim)
    ticked = {name for name in after if after[name] != before[name]}
    assert ticked <= {build.design.controller.name}
    assert sim.entry_wakes == wakes and sim.run_entries == entries + 1
    assert "run entries" in render_skip_report(sim)


@pytest.mark.parametrize("mode", SKIPPING)
def test_a_host_call_between_runs_ticks_only_what_it_reaches(mode):
    """The server's ``submit`` wakes it; everything else on the path is
    woken by channel traffic.  Idle cores, their adapters and the DRAM
    side never tick, and the cycle counts equal naive stepping."""
    cycles = {}
    for sched in ("naive", mode):
        build = BeethovenBuild(delay_config(3, 40), AWSF1Platform(), scheduling=sched)
        handle = FpgaHandle(build.design)
        sim = build.design.sim
        handle.call("Delay", "run", 1, job=1).get()
        handle.run_cycles(1_000)
        before = _ticks(sim)
        fut = handle.call("Delay", "run", 0, job=2)
        fut.get()
        cycles[sched] = (sim.cycle, fut.latency_cycles, build.metrics(stable_only=True))
    after = _ticks(sim)
    ticked = {name for name in after if after[name] != before[name]}
    assert ticked == {"server", "mmio", "cmdrouter", "cmdadapt.0.0", "Delay.core0"}
    assert cycles[mode] == cycles["naive"]


def _all_tick_once(sim):
    """Run one cycle and check the entry rule woke every slot."""
    before, wakes = _ticks(sim), sim.entry_wakes
    sim.run(1)
    n_slots = len(sim._program.components)
    after = _ticks(sim)
    assert all(after[name] == before[name] + 1 for name in after), (before, after)
    assert sim.entry_wakes == wakes + n_slots


@pytest.mark.parametrize("mode", SKIPPING)
def test_step_and_late_add_wake_every_component(mode):
    sim, _chans = _pipeline(mode)
    sim.run(100)
    sim.step()
    _all_tick_once(sim)
    sim.run(50)
    sim.add(Sink("late", ChannelQueue(1, "late.in")))
    _all_tick_once(sim)
    sim.run(400)
    before = _ticks(sim)
    sim.run(50)  # no step, no add, nothing pending: nobody wakes
    assert _ticks(sim) == before


@pytest.mark.parametrize("mode", SKIPPING)
def test_snapshot_restore_wakes_every_component(mode):
    """Restoring in place rebuilds the schedule, so the next entry wakes
    everything, and the rest of the run equals the uninterrupted one."""
    build = BeethovenBuild(delay_config(2, 300), AWSF1Platform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    sim = build.design.sim
    futs = [handle.call("Delay", "run", c, job=c) for c in range(2)]
    sim.run(150)
    snap = capture(handle)

    def finish():
        for fut in futs:
            fut.get()
        return sim.cycle, [f.latency_cycles for f in futs], build.metrics(stable_only=True)

    reference = finish()
    restore(handle, snap)
    _all_tick_once(sim)
    assert finish() == reference


@pytest.mark.parametrize("mode", SKIPPING)
def test_a_host_push_between_runs_commits_at_the_entry_cycle(mode):
    """Nothing wakes, yet the entry cycle is stepped: the host's push
    commits there and its consumer pops it the next cycle, as in naive."""
    got = {}
    for sched in ("naive", mode):
        sim, chans = _pipeline(sched)
        sim.run(300)
        entry = sim.cycle
        chans[3].push("late")
        sim.run(1_000)
        got[sched] = sim._components[4].got  # the tail sink
        assert got[sched] == [(entry + 1, "late")]
        if sched != "naive":
            assert sim.cycles_skipped > 0
    assert got[mode] == got["naive"]


# --------------------------------------------------------------- lazy exit
@pytest.mark.parametrize("mode", SKIPPING)
def test_channel_counters_are_exact_without_a_sync(mode):
    """Direct reads, registry views and ``mean_occupancy`` equal naive
    values after each run and when read from inside a tick."""
    probe_at = (0, 4, 9, 26, 31, 33, 77, 95, 250, 590)
    results = {}
    for sched in ("naive", mode):
        sim, chans = _pipeline(sched, probe_at)
        _drive(sim, chans)
        views = {
            name: value for name, value in sim.registry.dump("chan").items()
            if name.rsplit("/", 1)[1] in ("occupancy_accum", "cycles_observed", "mean_occupancy")
        }
        results[sched] = (
            sim.cycle, [_stats(c) for c in chans], views, sim._components[-1].seen
        )
    assert results[mode] == results["naive"]
    assert len(results[mode][3]) == len(probe_at)
    assert all(stats[3] == results[mode][0] for stats in results[mode][1])


def test_tick_reports_and_captures_equal_eager_flush_values():
    """Folding slot counts when read gives the values an eager fold at
    every run exit gave: wake summary, class table, and the
    ``_ticks_executed`` a snapshot captures."""
    def session(eager):
        build = BeethovenBuild(delay_config(3, 40), AWSF1Platform(), scheduling="compiled")
        handle = FpgaHandle(build.design)
        sim = build.design.sim
        if eager:
            run = sim.run

            def run_and_fold(*args, **kwargs):
                try:
                    return run(*args, **kwargs)
                finally:
                    sim._program.flush_ticks()

            sim.run = run_and_fold
        for job in range(4):
            handle.call("Delay", "run", job % 3, job=job).get()
            handle.run_cycles(77)
        snap = capture(handle)
        return snap.payload["sim"]["components"], wake_summary(sim), class_tick_table(sim)

    lazy, eager = session(False), session(True)
    assert lazy == eager
    captured = {
        name: state["_ticks_executed"]
        for name, state in lazy[0]
        if isinstance(state, dict) and "_ticks_executed" in state
    }
    assert captured and all(
        ticks == lazy[1][name]["ticks_executed"] for name, ticks in captured.items()
    )


# ------------------------------------------------------------------ budgets
def test_asymmetric_serving_ticks_per_command_budget():
    """60 asymmetric requests (seed 1): 29.9 executed ticks per completed
    command, 53.1 while every entry woke every component."""
    build = hetero_build()
    handle = FpgaHandle(build.design)
    loads = profile_loads("asymmetric", 60)
    service = AcceleratorService(handle, [load.tenant for load in loads])
    report = LoadGenerator(service, loads, seed=1).run()
    sim = build.design.sim
    executed = sum(sim.component_ticks(c) for c in sim._components)
    assert executed / report.totals["completed"] <= 32
    assert sim.entry_wakes == len(sim._program.components)  # the first run only


def test_memcpy_awaited_one_future_at_a_time_budget():
    """32 cores copy 1 KiB each and the host awaits the futures in order:
    12 852 executed ticks, 17 581 while each ``get`` woke every component."""
    size = 1024
    build = BeethovenBuild(memcpy_config(n_cores=32), AWSF1Platform())
    handle = FpgaHandle(build.design)
    src = handle.malloc(32 * size)
    src.write(bytes(i % 251 for i in range(32 * size)))
    handle.copy_to_fpga(src)
    dsts = [handle.malloc(size) for _ in range(32)]
    futs = [
        handle.call("Memcpy", "memcpy", c, src=src.offset(c * size),
                    dst=dsts[c].fpga_addr, len_bytes=size)
        for c in range(32)
    ]
    for fut in futs:
        fut.get()
    sim = build.design.sim
    assert sum(sim.component_ticks(c) for c in sim._components) <= 13_000
    for c, dst in enumerate(dsts):
        handle.copy_from_fpga(dst)
        assert dst.read() == bytes((c * size + i) % 251 for i in range(size))
