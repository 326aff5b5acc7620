"""Property and unit tests for the compiled tick-program backend.

Three layers of evidence that ``scheduling="compiled"`` executes the same
schedule as the naive oracle:

* **Randomised relay pipelines** — seeded topologies of producers, relay
  stages and sinks with burst schedules, backpressure stalls and long idle
  windows, run to completion and compared log-for-log (every event carries
  its cycle) and channel-statistic-for-statistic (sparse-commit occupancy
  integrals included), both in one shot and in lockstep chunks.  All
  randomness is drawn up front from seeded generators and service delays
  are pure functions of the item value, so the schedules cannot diverge
  through hidden state.
* **Closure specialisation units** — ``compile_tick``/``compile_hint``
  selection, including the instance-patch escape hatches (fault injection
  replaces ``tick``/``next_event`` on instances; the compiled program must
  honour the patches, not the class specialisations).
* **One slot per component** — the program has one tick function per
  component, and the set of classes running a ``compile_tick`` closure is
  pinned on a real design.  A chain whose stages share one wake signature
  still matches naive timing.

Plus the ``request_wake`` escape hatch: non-channel coupling (a foreign
component poking a shared :class:`repro.memory.scratchpad.Memory`) must
re-wake the clocking component under compiled exactly as under naive.
"""

import random

import pytest

from repro.axi.types import AxiParams
from repro.core.build import BeethovenBuild
from repro.dram.controller import MemoryController
from repro.kernels.memcpy import memcpy_config
from repro.memory.reader import Reader
from repro.memory.scratchpad import Memory, Scratchpad, SpReq
from repro.memory.writer import Writer
from repro.noc.axi_node import AxiBufferNode, AxiPipe
from repro.noc.idmap import IdCompressor
from repro.platforms import SimulationPlatform
from repro.sim import NEVER, SCHEDULING_MODES, ChannelQueue, Component, Simulator
from repro.sim.compiled import CompiledProgram

MODES = SCHEDULING_MODES


def _service_delay(value: int) -> int:
    """Deterministic pseudo-random per-item service time, 0..6 cycles."""
    return (value * 2654435761) % 7


class ScheduledProducer(Component):
    """Pushes a precomputed (cycle, value) schedule, honouring backpressure.

    The ``next_event`` hint points at the next scheduled push; when the
    output is full the producer stalls and relies on the freeing pop waking
    it (the output channel is in its wake set via ``channels``).
    """

    def __init__(self, name, out, schedule):
        super().__init__(name)
        self.out = out
        self.schedule = sorted(schedule)  # [(cycle, value), ...]
        self._next = 0
        self.log = []

    def channels(self):
        return [self.out]

    def tick(self, cycle):
        while (
            self._next < len(self.schedule)
            and self.schedule[self._next][0] <= cycle
            and self.out.can_push()
        ):
            value = self.schedule[self._next][1]
            self.out.push(value)
            self.log.append((cycle, "push", value))
            self._next += 1

    def next_event(self, cycle):
        if self._next >= len(self.schedule):
            return NEVER
        due = self.schedule[self._next][0]
        if due > cycle:
            return due
        # An overdue item with free output space must wake immediately; if
        # the output is full the freeing pop provides the wake (claiming
        # NEVER while the output has room would break the hint contract —
        # the committed drain since our last tick makes the next tick a
        # push, not a no-op).
        return NEVER if not self.out.can_push() else cycle

    def done(self):
        return self._next >= len(self.schedule)


class RelayStage(Component):
    """Pops an item, services it for ``_service_delay(value)`` cycles, then
    pushes it downstream (blocking on backpressure)."""

    def __init__(self, name, inp, out):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self._item = None
        self._ready_at = 0
        self.log = []

    def channels(self):
        return [self.inp, self.out]

    def tick(self, cycle):
        if self._item is not None and cycle >= self._ready_at:
            if self.out.can_push():
                self.out.push(self._item)
                self.log.append((cycle, "emit", self._item))
                self._item = None
            else:
                return  # blocked; wake on downstream pop
        if self._item is None and self.inp.can_pop():
            self._item = self.inp.pop()
            self._ready_at = cycle + _service_delay(self._item)
            self.log.append((cycle, "take", self._item))

    def next_event(self, cycle):
        if self._item is not None:
            return max(self._ready_at, cycle)
        return NEVER

    def done(self):
        return self._item is None


class Sink(Component):
    def __init__(self, name, inp):
        super().__init__(name)
        self.inp = inp
        self.log = []

    def channels(self):
        return [self.inp]

    def tick(self, cycle):
        while self.inp.can_pop():
            self.log.append((cycle, "sink", self.inp.pop()))

    def next_event(self, cycle):
        return NEVER


def _build_pipeline(seed, scheduling):
    """A randomised fan-out of relay chains sharing one producer schedule."""
    rng = random.Random(seed)
    n_chains = rng.randint(1, 4)
    sim = Simulator(scheduling=scheduling)
    chains = []
    for c in range(n_chains):
        depth = rng.randint(1, 3)
        n_items = rng.randint(5, 40)
        # Bursty schedule: clusters of same-cycle pushes + long gaps, so
        # both backpressure and long-idle windows occur.
        schedule, cycle = [], 0
        for _ in range(n_items):
            cycle += rng.choice([0, 0, 1, 2, 3, rng.randint(20, 200)])
            schedule.append((cycle, rng.randrange(1, 1 << 16)))
        n_stages = rng.randint(1, 3)
        links = [
            ChannelQueue(rng.randint(1, 3), f"c{c}.l{i}")
            for i in range(n_stages + 1)
        ]
        prod = sim.add(ScheduledProducer(f"c{c}.prod", links[0], schedule))
        stages = [
            sim.add(RelayStage(f"c{c}.s{i}", links[i], links[i + 1]))
            for i in range(n_stages)
        ]
        sink = sim.add(Sink(f"c{c}.sink", links[-1]))
        for link in links:
            sim.register_channel(link)
        chains.append((prod, stages, sink, n_items))
    return sim, chains


def _drained(chains):
    def pred():
        return all(
            prod.done()
            and all(s.done() for s in stages)
            and len(sink.log) == n_items
            for prod, stages, sink, n_items in chains
        )

    return pred


def _observe(sim, chains):
    logs = {}
    for prod, stages, sink, _ in chains:
        for comp in [prod, *stages, sink]:
            logs[comp.name] = list(comp.log)
    stats = [
        (c.name, c.total_pushed, c.total_popped, c.occupancy_accum,
         c.cycles_observed, c.mean_occupancy)
        for c in sim._channels
    ]
    return {"cycle": sim.cycle, "logs": logs, "channel_stats": stats}


def _run_to_drain(seed, scheduling, settle=500):
    sim, chains = _build_pipeline(seed, scheduling)
    sim.run(200_000, until=_drained(chains))
    # Run past the drain point too: idle-tail statistics (occupancy
    # integrals over empty channels) must also match under sparse commit.
    sim.run(settle)
    return _observe(sim, chains), sim


# ---------------------------------------------------------------------------
# Randomised relay-pipeline property tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_compiled_matches_naive(seed):
    naive, _ = _run_to_drain(seed, "naive")
    compiled, sim = _run_to_drain(seed, "compiled")
    assert compiled == naive
    # Non-vacuous: the compiled schedule elided ticks somewhere.
    total = sum(sim.component_ticks(c) for c in sim._components)
    assert total < sim.cycle * len(sim._components)


@pytest.mark.parametrize("seed", range(6))
def test_compiled_lockstep_with_selective(seed):
    """Step the compiled program's selective (wake-set) schedule and the
    naive oracle in odd-sized chunks and compare the observable state at
    every boundary — divergence is caught the cycle window it happens in,
    not just at the end.  Chunked runs also exercise program
    re-entry (an entry wakes nobody; the wake state carries over)."""
    sim_n, chains_n = _build_pipeline(seed, "naive")
    sim_c, chains_c = _build_pipeline(seed, "compiled")
    rng = random.Random(seed ^ 0xC0FFEE)
    for _ in range(200):
        chunk = rng.choice([1, 3, 7, 23, 97])
        sim_n.run(chunk)
        sim_c.run(chunk)
        assert _observe(sim_c, chains_c) == _observe(sim_n, chains_n)
        if _drained(chains_n)():
            break
    assert _drained(chains_c)()


def test_sparse_commit_occupancy_integral():
    """A channel left non-empty across a long idle gap accrues occupancy for
    every elided cycle (the anchor lag-credit path)."""
    sim = Simulator(scheduling="compiled")
    chan = ChannelQueue(4, "gap")
    prod = ScheduledProducer("prod", chan, [(0, 7), (1, 9)])
    sink_chan = ChannelQueue(4, "out")
    stage = RelayStage("stage", chan, sink_chan)
    sink = Sink("sink", sink_chan)
    for c in (prod, stage, sink):
        sim.add(c)
    sim.register_channel(chan)
    sim.register_channel(sink_chan)
    sim.run(until=lambda: len(sink.log) == 2, max_cycles=1000)
    sim.run(10_000)  # long fully-idle tail
    assert sim.cycles_skipped > 9_000
    for c in (chan, sink_chan):
        assert c.cycles_observed == sim.cycle
        # Empty throughout the tail: integral fixed, mean decays.
        assert c.total_pushed == c.total_popped == 2


# ---------------------------------------------------------------------------
# request_wake: same-cycle/next-cycle semantics and the Memory.on_activity
# escape hatch (satellite: non-channel coupling must stay honoured).
# ---------------------------------------------------------------------------


class _Poker(Component):
    """Mutates a foreign component directly (no channel) and requests a wake."""

    def __init__(self, name, target, poke_cycle):
        super().__init__(name)
        self.target = target
        self.poke_cycle = poke_cycle

    def tick(self, cycle):
        if cycle == self.poke_cycle:
            self.target.value = cycle
            self.target.request_wake()

    def next_event(self, cycle):
        return self.poke_cycle if self.poke_cycle >= cycle else NEVER


class _Watcher(Component):
    def __init__(self, name):
        super().__init__(name)
        self.value = None
        self.seen = []

    def tick(self, cycle):
        if self.value is not None:
            self.seen.append((cycle, self.value))
            self.value = None

    def next_event(self, cycle):
        return NEVER


@pytest.mark.parametrize("scheduling", MODES)
def test_request_wake_order_semantics(scheduling):
    """A wake requested by an earlier-indexed component lands the same
    cycle (naive ticks the target afterwards); from a later-indexed
    component it lands next cycle."""

    def run_order(poker_first):
        sim = Simulator(scheduling=scheduling)
        watcher = _Watcher("watcher")
        poker = _Poker("poker", watcher, 10)
        if poker_first:
            sim.add(poker), sim.add(watcher)
        else:
            sim.add(watcher), sim.add(poker)
        sim.run(20)
        return watcher.seen

    assert run_order(True) == [(10, 10)]
    assert run_order(False) == [(11, 10)]


class _MemClocker(Component):
    """Owns a shared :class:`Memory`, clocks it, logs matured read data.

    Models an intra-core memory whose ports are driven *directly* by a
    foreign component — coupling the wake subscriptions cannot see.  The
    ``on_activity -> request_wake`` hatch provides the initial wake; the
    hint keeps the component awake while the read pipeline holds data.
    """

    def __init__(self, name, mem):
        super().__init__(name)
        self.mem = mem
        mem.on_activity = self.request_wake
        self.delivered = []

    def channels(self):
        return []

    def _pipeline_busy(self):
        return any(
            v is not None for pipe in self.mem._pipes for v in pipe
        ) or any(v is not None for v in self.mem._out)

    def tick(self, cycle):
        data = self.mem.rdata(0)
        if data is not None:
            self.delivered.append((cycle, data))
        self.mem.clock()

    def next_event(self, cycle):
        return cycle if self._pipeline_busy() else NEVER


class _MemDriver(Component):
    """Issues scheduled direct reads/writes against a foreign Memory."""

    def __init__(self, name, mem, schedule):
        super().__init__(name)
        self.mem = mem
        self.schedule = sorted(schedule)  # [(cycle, "r"|"w", row, value)]
        self._next = 0

    def channels(self):
        return []

    def tick(self, cycle):
        while self._next < len(self.schedule) and self.schedule[self._next][0] == cycle:
            _, kind, row, value = self.schedule[self._next]
            if kind == "w":
                self.mem.write(0, row, value)
            else:
                self.mem.read(0, row)
            self._next += 1

    def next_event(self, cycle):
        if self._next >= len(self.schedule):
            return NEVER
        return max(self.schedule[self._next][0], cycle)


def _run_mem_coupling(scheduling, driver_first):
    mem = Memory(latency=3, data_width=32, n_rows=8, name="shared")
    sim = Simulator(scheduling=scheduling)
    clocker = _MemClocker("clocker", mem)
    schedule = [
        (5, "w", 2, 0xAB),
        (40, "r", 2, 0),
        (41, "w", 3, 0xCD),
        (200, "r", 3, 0),
        (201, "r", 2, 0),
    ]
    driver = _MemDriver("driver", mem, schedule)
    if driver_first:
        sim.add(driver), sim.add(clocker)
    else:
        sim.add(clocker), sim.add(driver)
    sim.run(400)
    return clocker.delivered, list(mem._cells)


@pytest.mark.parametrize("driver_first", (True, False))
def test_memory_on_activity_escape_hatch(driver_first):
    """Direct Memory accesses from a foreign component (no channels at all)
    produce identical delivery cycles and final contents under every
    schedule: the ``on_activity`` hatch wakes the sleeping clocker."""
    baseline = _run_mem_coupling("naive", driver_first)
    for scheduling in MODES[1:]:
        assert _run_mem_coupling(scheduling, driver_first) == baseline
    delivered, cells = baseline
    assert [v for _, v in delivered] == [0xAB, 0xCD, 0xAB]
    assert cells[2] == 0xAB and cells[3] == 0xCD


class _ScratchpadDriver(Component):
    """Exercises a Scratchpad port with a scheduled mix of reads/writes."""

    def __init__(self, name, port, schedule):
        super().__init__(name)
        self.port = port
        self.schedule = sorted(schedule, key=lambda e: e[0])  # [(cycle, SpReq)]
        self._next = 0
        self.responses = []

    def channels(self):
        return [self.port.req, self.port.resp]

    def tick(self, cycle):
        while self.port.resp.can_pop():
            self.responses.append((cycle, self.port.resp.pop()))
        while (
            self._next < len(self.schedule)
            and self.schedule[self._next][0] <= cycle
            and self.port.req.can_push()
        ):
            self.port.req.push(self.schedule[self._next][1])
            self._next += 1

    def next_event(self, cycle):
        if self._next >= len(self.schedule):
            return NEVER
        due = self.schedule[self._next][0]
        if due > cycle:
            return due
        return cycle if self.port.req.can_push() else NEVER


def _run_scratchpad(scheduling):
    sim = Simulator(scheduling=scheduling)
    sp = Scratchpad(
        "sp", data_width_bits=32, n_datas=16, axi_params=AxiParams(),
        with_init=False,
    )
    rng = random.Random(99)
    schedule, cycle = [], 0
    written = {}
    for _ in range(30):
        cycle += rng.choice([0, 1, 2, rng.randint(30, 90)])
        row = rng.randrange(16)
        if written and rng.random() < 0.5:
            schedule.append((cycle, SpReq(row=rng.choice(list(written)))))
        else:
            value = rng.randrange(1 << 32)
            written[row] = value
            schedule.append((cycle, SpReq(row=row, write=True, wdata=value)))
    driver = _ScratchpadDriver("driver", sp.ports[0], schedule)
    sim.add(sp)
    sim.add(driver)
    sim.run(2000)
    return driver.responses, sp.reads_served, sp.writes_served, list(sp.mem._cells)


def test_scratchpad_parity_across_schedules():
    """The real Scratchpad (request_wake-wired Memory + credit-ruled ports)
    behaves identically under both schedules."""
    baseline = _run_scratchpad("naive")
    responses, reads, writes, _cells = baseline
    assert reads > 0 and writes > 0 and responses
    for scheduling in MODES[1:]:
        assert _run_scratchpad(scheduling) == baseline


# ---------------------------------------------------------------------------
# Closure-specialisation units
# ---------------------------------------------------------------------------


class _SpecializedEcho(Component):
    """Forwards items; offers a compiled closure and a compile-time hint."""

    def __init__(self, name, inp, out):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self.compiled_ticks = 0

    def channels(self):
        return [self.inp, self.out]

    def tick(self, cycle):
        if self.inp.can_pop() and self.out.can_push():
            self.out.push(self.inp.pop())

    def next_event(self, cycle):
        return NEVER

    def compile_tick(self):
        inp, out = self.inp, self.out

        def tick(cycle, self=self):
            self.compiled_ticks += 1
            if inp._pop_count < len(inp._items) and (
                len(out._items) + len(out._staged) < out.capacity
            ):
                out.push(inp.pop())

        return tick

    def compile_hint(self):
        def hint(cycle):
            return NEVER

        return hint


def _echo_sim():
    sim = Simulator(scheduling="compiled")
    a = ChannelQueue(2, "a")
    b = ChannelQueue(2, "b")
    echo = sim.add(_SpecializedEcho("echo", a, b))
    sim.register_channel(a)
    sim.register_channel(b)
    return sim, echo, a, b


def test_compile_tick_closure_is_used():
    sim, echo, a, b = _echo_sim()
    a.push(7)
    sim.run(5)
    assert b.can_pop() and b.peek() == 7
    assert echo.compiled_ticks > 0
    assert "echo" in sim._program.specialized


def test_instance_tick_patch_disables_specialization():
    """A fault-style instance patch of ``tick`` must win over the class's
    ``compile_tick`` (the patch is how hang injection reaches the model)."""
    sim, echo, a, b = _echo_sim()
    echo.tick = lambda cycle: None  # instance patch: component plays dead
    a.push(7)
    sim.run(5)
    assert "echo" not in sim._program.specialized
    assert echo.compiled_ticks == 0
    assert not b.can_pop()  # the patched (dead) tick really ran instead


def test_compile_hint_selection_and_instance_override():
    sim, echo, a, b = _echo_sim()
    hint = CompiledProgram._hint_fn(echo)
    assert hint is not None
    assert hint(0) == NEVER  # the compile_hint closure, not next_event

    # An instance-level next_event (fault hang injection) must disable the
    # compile_hint path and be consulted directly.
    echo.next_event = lambda cycle: 42.0
    patched = CompiledProgram._hint_fn(echo)
    assert patched(0) == 42.0


def test_wake_only_hint_elided():
    class _Reactive(Component):
        wake_only = True

        def __init__(self, name, chan):
            super().__init__(name)
            self.chan = chan

        def channels(self):
            return [self.chan]

        def tick(self, cycle):
            if self.chan.can_pop():
                self.chan.pop()

        def next_event(self, cycle):
            return NEVER

    comp = _Reactive("r", ChannelQueue(2, "c"))
    assert CompiledProgram._hint_fn(comp) is None
    # ...unless an instance patch re-enables evaluation (hang injection).
    comp.next_event = lambda cycle: 13.0
    assert CompiledProgram._hint_fn(comp)(0) == 13.0


def test_specialized_classes_on_memcpy():
    """One tick function per component, and exactly these six classes run a
    ``compile_tick`` closure.  Each is a second body of its model that a
    benchmark pair showed to be worth keeping; a new ``compile_tick`` needs
    a ``bench/run.py`` pair that shows a win before it joins this set."""
    sim = BeethovenBuild(memcpy_config(n_cores=32), SimulationPlatform()).design.sim
    sim.run(1)  # builds the program
    prog = sim._program
    assert len(prog._tick_fns) == len(prog.components) == len(sim._components)
    assert [c._sched_index for c in prog.components] == list(
        range(len(prog.components))
    )
    specialized = set(prog.specialized)
    assert {type(c) for c in prog.components if c.name in specialized} == {
        MemoryController,
        AxiBufferNode,
        AxiPipe,
        IdCompressor,
        Reader,
        Writer,
    }


# ---------------------------------------------------------------------------
# A chain sharing one wake signature
# ---------------------------------------------------------------------------


class _SharedWakeStage(RelayStage):
    """A relay stage advertising the whole chain's channel set, so every
    stage has an identical wake signature and is always co-woken."""

    def wake_channels(self):
        return list(self.all_links)


def _build_shared_wake_chain(scheduling, n_stages=4):
    rng = random.Random(1234)
    sim = Simulator(scheduling=scheduling)
    links = [ChannelQueue(2, f"l{i}") for i in range(n_stages + 1)]
    stages = []
    for i in range(n_stages):
        stage = _SharedWakeStage(f"s{i}", links[i], links[i + 1])
        stage.all_links = links
        stages.append(sim.add(stage))
    for link in links:
        sim.register_channel(link)
    feed = [rng.randrange(1, 1 << 16) for _ in range(25)]
    return sim, links, stages, feed


def _drive_chain(sim, links, stages, feed):
    """Push items into the head link between runs; collect from the tail."""
    out = []
    i = 0
    while i < len(feed) or any(s._item is not None for s in stages) or any(
        len(l) or l._staged for l in links
    ):
        while i < len(feed) and links[0].can_push():
            links[0].push(feed[i])
            i += 1
        sim.run(10)
        while links[-1].can_pop():
            out.append((sim.cycle, links[-1].pop()))
        if sim.cycle > 100_000:
            raise AssertionError("chain failed to drain")
    return out


def test_fused_chain_matches_naive_timing():
    compiled = _build_shared_wake_chain("compiled")
    naive = _build_shared_wake_chain("naive")
    out_c = _drive_chain(*compiled)
    out_n = _drive_chain(*naive)
    assert out_c == out_n
    stats_c = [
        (c.name, c.total_pushed, c.total_popped, c.occupancy_accum,
         c.cycles_observed)
        for c in compiled[0]._channels
    ]
    stats_n = [
        (c.name, c.total_pushed, c.total_popped, c.occupancy_accum,
         c.cycles_observed)
        for c in naive[0]._channels
    ]
    assert stats_c == stats_n
