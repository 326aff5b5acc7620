"""Unit tests for the cycle-level simulation kernel."""

import random

import pytest

from repro.sim import (
    DEFAULT_SCHEDULING,
    NEVER,
    SCHEDULING_MODES,
    ChannelQueue,
    Component,
    SimulationError,
    Simulator,
)


def test_two_schedules_one_knob():
    """The naive oracle and the compiled production loop are the only
    schedules, and ``scheduling`` is the only knob that picks one."""
    from repro.core.build import BeethovenBuild
    from repro.core.elaboration import ElaboratedDesign
    from repro.testing import build_memory_testbench

    assert SCHEDULING_MODES == ("naive", "compiled")
    assert DEFAULT_SCHEDULING == "compiled"
    assert Simulator().scheduling == "naive"
    for mode in ("fast_forward", "selective", None):
        with pytest.raises(ValueError):
            Simulator(scheduling=mode)
    from repro.baselines.delay_core import delay_config
    from repro.platforms import AWSF1Platform

    config, platform = delay_config(1, 10), AWSF1Platform()
    for entry, args in (
        (Simulator, ()),
        (BeethovenBuild, (config, platform)),
        (ElaboratedDesign, ([config], platform)),
        (build_memory_testbench, ([],)),
    ):
        with pytest.raises(TypeError, match="fast_forward"):
            entry(*args, fast_forward=True)


class Producer(Component):
    def __init__(self, chan, count):
        super().__init__("producer")
        self.chan = chan
        self.remaining = count
        self.sent = 0

    def tick(self, cycle):
        if self.remaining and self.chan.can_push():
            self.chan.push(self.sent)
            self.sent += 1
            self.remaining -= 1


class Consumer(Component):
    def __init__(self, chan):
        super().__init__("consumer")
        self.chan = chan
        self.received = []

    def tick(self, cycle):
        if self.chan.can_pop():
            self.received.append(self.chan.pop())


def test_channel_fifo_order():
    chan = ChannelQueue(4, "c")
    sim = Simulator()
    sim.register_channel(chan)
    prod = sim.add(Producer(chan, 10))
    cons = sim.add(Consumer(chan))
    sim.run(100, until=lambda: len(cons.received) == 10)
    assert cons.received == list(range(10))


def test_push_not_visible_same_cycle():
    chan = ChannelQueue(4, "c")
    chan.push(1)
    assert not chan.can_pop()  # becomes visible only after commit
    chan.commit()
    assert chan.can_pop()
    assert chan.pop() == 1


def test_pop_frees_space_next_cycle_only():
    chan = ChannelQueue(1, "c")
    chan.push(1)
    chan.commit()
    assert chan.pop() == 1
    assert not chan.can_push()  # space frees at commit
    chan.commit()
    assert chan.can_push()


def test_order_independence():
    """Producer-before-consumer and consumer-before-producer give identical
    transfer schedules."""

    def run(order):
        chan = ChannelQueue(2, "c")
        prod = Producer(chan, 5)
        cons = Consumer(chan)
        sim = Simulator()
        sim.register_channel(chan)
        for comp in (prod, cons) if order == "pc" else (cons, prod):
            sim.add(comp)
        arrival = []
        while len(cons.received) < 5 and sim.cycle < 50:
            before = len(cons.received)
            sim.step()
            if len(cons.received) > before:
                arrival.append(sim.cycle)
        return arrival

    assert run("pc") == run("cp")


def test_push_overflow_raises():
    chan = ChannelQueue(1, "c")
    chan.push(1)
    with pytest.raises(SimulationError):
        chan.push(2)


def test_pop_empty_raises():
    chan = ChannelQueue(1, "c")
    with pytest.raises(SimulationError):
        chan.pop()


def test_peek_offsets():
    chan = ChannelQueue(4, "c")
    for i in range(3):
        chan.push(i)
    chan.commit()
    assert chan.peek() == 0
    assert chan.peek(2) == 2
    chan.pop()
    assert chan.peek() == 1


def test_run_until_deadlock_detection():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run(10, until=lambda: False)


def test_run_until_stops_early():
    sim = Simulator()
    reached = sim.run(100, until=lambda: sim.cycle == 7)
    assert reached == 7


def test_capacity_validation():
    with pytest.raises(ValueError):
        ChannelQueue(0, "bad")


def test_len_reflects_pops():
    chan = ChannelQueue(4, "c")
    chan.push(1)
    chan.push(2)
    chan.commit()
    assert len(chan) == 2
    chan.pop()
    assert len(chan) == 1


# ---------------------------------------------------------------------------
# peek visible-window regression: peek must advertise exactly the window that
# __len__ / can_pop do — no reaching back into already-popped items, no
# reaching forward into items staged this cycle.
# ---------------------------------------------------------------------------


def test_peek_rejects_negative_offset():
    chan = ChannelQueue(4, "c")
    chan.push(1)
    chan.push(2)
    chan.commit()
    chan.pop()
    with pytest.raises(SimulationError):
        chan.peek(-1)  # would resurrect the item popped this cycle


def test_peek_window_matches_len():
    chan = ChannelQueue(8, "c")
    for i in range(4):
        chan.push(i)
    chan.commit()
    chan.push(99)  # staged: not visible until commit
    chan.pop()
    chan.pop()
    assert len(chan) == 2
    assert chan.peek(0) == 2
    assert chan.peek(1) == 3
    with pytest.raises(SimulationError):
        chan.peek(2)  # would see the staged push early
    with pytest.raises(SimulationError):
        chan.peek(len(chan))


def test_peek_empty_raises():
    chan = ChannelQueue(2, "c")
    with pytest.raises(SimulationError):
        chan.peek()


# ---------------------------------------------------------------------------
# Property-based exercise of the channel invariants against a reference model
# (seeded random — deterministic, no external dependencies).
# ---------------------------------------------------------------------------


def _random_channel_workout(seed, capacity, cycles):
    rng = random.Random(seed)
    chan = ChannelQueue(capacity, f"prop{seed}")
    visible = []  # reference model: items visible this cycle
    staged = []  # reference model: pushes staged this cycle
    pushed_seq = []
    popped_seq = []
    next_token = 0

    for _ in range(cycles):
        popped_this_cycle = 0
        for _ in range(rng.randrange(4)):
            op = rng.choice(("push", "pop", "peek"))
            if op == "push":
                # Capacity invariant: admission counts visible + staged items.
                assert chan.can_push() == (
                    len(visible) + len(staged) + 1 <= capacity
                )
                if chan.can_push():
                    chan.push(next_token)
                    staged.append(next_token)
                    pushed_seq.append(next_token)
                    next_token += 1
                else:
                    with pytest.raises(SimulationError):
                        chan.push(-1)
            elif op == "pop":
                # Start-of-cycle visibility: only items visible at the start
                # of the cycle (minus this cycle's pops) can be popped.
                assert chan.can_pop() == (popped_this_cycle < len(visible))
                if chan.can_pop():
                    popped_seq.append(chan.pop())
                    popped_this_cycle += 1
                else:
                    with pytest.raises(SimulationError):
                        chan.pop()
            else:
                window = len(visible) - popped_this_cycle
                assert len(chan) == window
                if window:
                    off = rng.randrange(window)
                    assert chan.peek(off) == visible[popped_this_cycle + off]
                else:
                    with pytest.raises(SimulationError):
                        chan.peek()
        chan.commit()
        del visible[:popped_this_cycle]
        visible.extend(staged)
        staged.clear()

    # FIFO order end to end: the popped sequence is a prefix of the pushed one.
    assert popped_seq == pushed_seq[: len(popped_seq)]
    assert chan.total_pushed == len(pushed_seq)
    assert chan.total_popped == len(popped_seq)


@pytest.mark.parametrize("seed", range(8))
def test_channel_property_workout(seed):
    _random_channel_workout(seed, capacity=1 + seed % 4, cycles=200)


# ---------------------------------------------------------------------------
# Event-skipping kernel unit semantics.
# ---------------------------------------------------------------------------


class Sleeper(Component):
    """Responds exactly ``delay`` cycles after each request, via next_event."""

    def __init__(self, delay):
        super().__init__("sleeper")
        self.req = ChannelQueue(2, "sleeper.req")
        self.resp = ChannelQueue(2, "sleeper.resp")
        self.delay = delay
        self._due = None
        self.tick_cycles = []

    def tick(self, cycle):
        self.tick_cycles.append(cycle)
        if self._due is not None:
            if cycle >= self._due and self.resp.can_push():
                self.resp.push(cycle)
                self._due = None
            return
        if self.req.can_pop():
            self.req.pop()
            self._due = cycle + self.delay

    def next_event(self, cycle):
        if self._due is None:
            return NEVER
        return max(cycle, self._due)


def test_fast_forward_skips_to_hint():
    sim = Simulator(scheduling="compiled")
    sleeper = sim.add(Sleeper(1000))
    sleeper.req.push(0)
    sim.run(5000, until=lambda: len(sleeper.resp) > 0)
    # Response lands at the same cycle a naive run produces...
    naive = Simulator()
    ns = naive.add(Sleeper(1000))
    ns.req.push(0)
    naive.run(5000, until=lambda: len(ns.resp) > 0)
    assert sim.cycle == naive.cycle
    # ...but the compiled run elided almost all of the wait.
    assert sim.cycles_skipped > 900
    assert len(sleeper.tick_cycles) < 100


def test_unhinted_component_vetoes_skipping():
    class Unhinted(Component):
        def tick(self, cycle):
            pass

    sim = Simulator(scheduling="compiled")
    sleeper = sim.add(Sleeper(1000))
    sim.add(Unhinted())
    sleeper.req.push(0)
    sim.run(5000, until=lambda: len(sleeper.resp) > 0)
    assert sim.cycles_skipped == 0


def test_fast_forward_credits_channel_stats():
    sim = Simulator(scheduling="compiled")
    sleeper = sim.add(Sleeper(1000))
    sleeper.req.push(0)
    sim.run(5000, until=lambda: len(sleeper.resp) > 0)
    for chan in (sleeper.req, sleeper.resp):
        assert chan.cycles_observed == sim.cycle


def test_all_never_skips_to_deadline_only_without_predicate():
    class Reactive(Component):
        def tick(self, cycle):
            pass

        def next_event(self, cycle):
            return NEVER

    sim = Simulator(scheduling="compiled")
    sim.add(Reactive())
    assert sim.run(10_000) == 10_000
    assert sim.skip_events == 1
    assert sim.cycles_skipped == 10_000 - 1
