"""Channel statistics against a plain-Python reference model.

A channel keeps no per-call counters: ``total_popped``, ``total_pushed``,
``cycles_observed`` and ``occupancy_accum`` are derived from what its
commits record and from the clock (``repro.sim.kernel.ChannelQueue``).
The model here restates the channel's contract — start-of-cycle
visibility, room counted against committed plus staged items, one
observation of the committed occupancy per cycle since registration — as
a loop over every cycle, and the simulated channel must match it:

* between cycles, wherever a ``run()`` stops (inside an idle window the
  compiled schedule jumps, too), after each interleaved ``step()``, and
  after a capture is restored into a rebuilt simulator;
* mid-cycle, from a probe component that ticks first in its cycles.

Both schedules are driven; a naive-vs-compiled comparison would not see a
slip in the derived arithmetic that both share, the model does.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.sim import NEVER, SCHEDULING_MODES, ChannelQueue, Component, Simulator
from repro.snapshot.engine import capture_sim_state, restore_sim_state

#: (total_pushed, total_popped, occupancy_accum, cycles_observed) between
#: cycles: row ``c`` holds the values once ``c`` cycles have been committed.
Row = Tuple[int, int, int, int]


def bursts(rng: random.Random, n_cycles: int) -> List[int]:
    """Sorted action cycles in bursts of 1-12 separated by idle gaps of up
    to 300 cycles, so the compiled schedule has windows to jump."""
    out, cycle = [], rng.randrange(40)
    while cycle < n_cycles:
        for _ in range(rng.randint(1, 12)):
            out.append(cycle)
            cycle += rng.choice((0, 1, 1, 2))
        cycle += rng.randint(20, 300)
    return [c for c in out if c < n_cycles]


def reference(pushes: List[int], pops: List[int], capacity: int, n_cycles: int) -> List[Row]:
    """Each planned push or pop is owed from its cycle on and made at the
    first cycle it can be: one per cycle, a pop of a committed item, a push
    while committed plus staged items leave room."""
    rows: List[Row] = []
    held = pushed = popped = accum = 0
    owed_push = owed_pop = pi = qi = 0
    for cycle in range(n_cycles + 1):
        rows.append((pushed, popped, accum, cycle))
        while pi < len(pushes) and pushes[pi] <= cycle:
            pi, owed_push = pi + 1, owed_push + 1
        while qi < len(pops) and pops[qi] <= cycle:
            qi, owed_pop = qi + 1, owed_pop + 1
        pop = 1 if owed_pop and held else 0
        push = 1 if owed_push and held < capacity else 0
        accum += held  # the observation of this cycle
        held += push - pop
        pushed, popped = pushed + push, popped + pop
        owed_push, owed_pop = owed_push - push, owed_pop - pop
    return rows


class _Planned(Component):
    """Acts on ``chan`` at the cycles of ``plan``, catching up one action
    per cycle; its hint names the next planned cycle, or the next cycle
    while an action is owed."""

    _state = ("_next", "_owed", "_done")

    def __init__(self, name: str, chan: ChannelQueue, plan: List[int]) -> None:
        super().__init__(name)
        self.chan = chan
        self.plan = plan
        self._next = self._owed = self._done = 0

    def channels(self):
        return []

    def wake_channels(self):
        return [self.chan]

    def tick(self, cycle: int) -> None:
        plan = self.plan
        while self._next < len(plan) and plan[self._next] <= cycle:
            self._next += 1
            self._owed += 1
        if self._owed and self.act():
            self._owed -= 1
            self._done += 1

    def next_event(self, cycle: int) -> float:
        if self._owed:
            return cycle
        return self.plan[self._next] if self._next < len(self.plan) else NEVER


class Pusher(_Planned):
    _state = ()

    def act(self) -> bool:
        if not self.chan.can_push():
            return False
        self.chan.push(self._done)
        return True


class Popper(_Planned):
    _state = ()

    def act(self) -> bool:
        if not self.chan.can_pop():
            return False
        assert self.chan.pop() == self._done  # FIFO order
        return True


class Probe(Component):
    """Added first, so it ticks before anything moves in its cycles: the
    statistics it reads mid-cycle are the start-of-cycle row."""

    _state = ("_next", "checked")

    def __init__(self, chan: ChannelQueue, rows: List[Row], plan: List[int]) -> None:
        super().__init__("probe")
        self.chan = chan
        self.rows = rows
        self.plan = plan
        self._next = self.checked = 0

    def channels(self):
        return []

    def tick(self, cycle: int) -> None:
        if self._next < len(self.plan) and self.plan[self._next] == cycle:
            self._next += 1
            self.checked += 1
            check(self.chan, self.rows[cycle], f"mid-cycle {cycle}")

    def next_event(self, cycle: int) -> float:
        return self.plan[self._next] if self._next < len(self.plan) else NEVER


def check(chan: ChannelQueue, row: Row, where: str) -> None:
    pushed, popped, accum, observed = row
    got = (chan.total_pushed, chan.total_popped, chan.occupancy_accum, chan.cycles_observed)
    assert got == row, f"{where}: (pushed, popped, accum, observed) {got} != {row}"
    assert chan.mean_occupancy == (accum / observed if observed else 0.0), where


def build(scheduling: str, capacity: int, pushes, pops, rows, probes):
    sim = Simulator(scheduling=scheduling)
    chan = sim.register_channel(ChannelQueue(capacity, "link"))
    sim.add(Probe(chan, rows, probes))
    sim.add(Pusher("pusher", chan, pushes))
    sim.add(Popper("popper", chan, pops))
    return sim, chan


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scheduling", SCHEDULING_MODES)
def test_channel_statistics_match_the_reference_model(scheduling, seed):
    rng = random.Random(seed)
    n_cycles, capacity = 3000, 1 + seed % 3
    pushes = bursts(rng, n_cycles - 200)  # every push lands before the end
    pops = sorted(c + rng.randint(0, 40) for c in pushes)
    probes = sorted(rng.sample(range(n_cycles), 60))
    rows = reference(pushes, pops, capacity, n_cycles)
    make = lambda: build(scheduling, capacity, pushes, pops, rows, probes)  # noqa: E731
    sim, chan = make()
    checks = restores = steps = 0
    while sim.cycle < n_cycles:
        if checks in (20, 45, 70):
            payload = capture_sim_state(sim)
            sim, chan = make()
            restore_sim_state(sim, payload)
            restores += 1
        elif rng.random() < 0.15:
            sim.step()
            steps += 1
        else:
            sim.run(min(rng.randint(1, 60), n_cycles - sim.cycle))
        check(chan, rows[sim.cycle], f"cycle {sim.cycle}")
        checks += 1
    assert sim._components[0].checked  # the probe ran on the final simulator
    assert rows[-1][:2] == (len(pushes), len(pushes))  # everything moved
    assert restores == 3 and steps
    if scheduling == "compiled":
        assert sim.cycles_skipped > n_cycles // 4  # idle windows were jumped


def test_a_channel_registered_late_keeps_what_it_observed():
    """Commits made standalone count as observations, and registration
    carries them (and any uncommitted traffic) onto the simulator's clock."""
    for scheduling in SCHEDULING_MODES:
        chan = ChannelQueue(4, "late")
        chan.push(1)
        chan.commit()
        chan.commit()
        chan.push(2)
        sim = Simulator(scheduling=scheduling)
        sim.run(5)
        sim.register_channel(chan)
        assert (chan.total_pushed, chan.occupancy_accum, chan.cycles_observed) == (2, 1, 2)
        sim.run(3)
        assert (chan.total_pushed, chan.occupancy_accum, chan.cycles_observed) == (2, 1 + 1 + 2 * 2, 5)
        assert len(chan) == 2
