"""AxiPipe edge cases and the run-window contract.

* a zero-latency pipe is legal;
* simulation windows compose: running ``N`` cycles as arbitrary ``run(n)``
  segments is bit-identical to one ``run(N)`` under every schedule, on a
  hand-wired pipe and on a built multi-die design.  ``run_cycles``, the DMA
  model and kill-and-resume all chop time this way.
"""

import random

import pytest

from repro.axi.types import ARReq, AxiParams, AxiPort
from repro.noc.axi_node import AxiPipe
from repro.sim import NEVER, SCHEDULING_MODES, Component, Simulator

PARAMS = AxiParams(beat_bytes=64, id_bits=6, addr_bits=34, max_burst_beats=64)


# --------------------------------------------------------------- latency = 0
def test_zero_latency_pipe_still_fine():
    """AxiPipe accepts latency=0: a crossing with no extra buffering."""
    up = AxiPort(PARAMS, "up")
    down = AxiPort(PARAMS, "down")
    AxiPipe(up, down, latency=0)


# ------------------------------------------------------------ micro-system
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

    A segment boundary is just an early ``run()`` return, never an
    observable event inside the model.
    """
    def one_shot(sim, total):
        sim.run(total)

    rng = random.Random(0xC0FFEE)

    def sliced(sim, total):
        done = 0
        while done < total:
            width = min(rng.randrange(1, 9), total - done)
            sim.run(width)
            done += width

    ref_log, ref_cycle = _drive(one_shot, scheduling=scheduling)
    for trial in range(3):
        log, cycle = _drive(sliced, scheduling=scheduling)
        assert log == ref_log
        assert cycle == ref_cycle


# ------------------------------------------------- a built multi-die design
MEMCPY_BYTES = 4096
MEMCPY_CORES = 4


def _memcpy_two_die(scheduling, advance):
    """memcpy x4 on two dies, advanced by ``advance(sim)`` from the cycle the
    copies are submitted; returns what the run leaves behind."""
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import multi_die_platform
    from repro.runtime import FpgaHandle

    build = BeethovenBuild(
        memcpy_config(n_cores=MEMCPY_CORES), multi_die_platform(2), scheduling=scheduling
    )
    assert build.design.noc_plan.n_pipes == 1
    handle = FpgaHandle(build.design)
    src = handle.malloc(MEMCPY_BYTES)
    src.write(bytes((i * 131 + 17) % 256 for i in range(MEMCPY_BYTES)))
    handle.copy_to_fpga(src)
    dsts = [handle.malloc(MEMCPY_BYTES) for _ in range(MEMCPY_CORES)]
    futs = [
        handle.call("Memcpy", "memcpy", c, src=src.fpga_addr, dst=dst.fpga_addr,
                    len_bytes=MEMCPY_BYTES)
        for c, dst in enumerate(dsts)
    ]
    advance(build.design.sim)
    finished = all(f.done for f in futs)
    for fut in futs:
        fut.get()
    out = []
    for dst in dsts:
        handle.copy_from_fpga(dst)
        out.append(dst.read())
    return finished, handle.cycle, build.metrics(stable_only=True), out


@pytest.mark.parametrize("scheduling", SCHEDULING_MODES)
def test_sliced_runs_compose_on_a_built_multi_die_design(scheduling):
    """Random ``run(n)`` segments over a memcpy crossing the SLR bridge end
    in the same cycle, stable metrics and copied bytes as one ``run(N)``."""
    total = 1200

    def one_shot(sim):
        sim.run(total)

    rng = random.Random(0xD1E)

    def sliced(sim):
        done = 0
        while done < total:
            width = min(rng.randrange(1, 97), total - done)
            sim.run(width)
            done += width

    reference = _memcpy_two_die(scheduling, one_shot)
    assert reference[0], "the segments must span the copies end to end"
    assert reference == _memcpy_two_die(scheduling, sliced)
