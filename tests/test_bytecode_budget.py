"""Executed bytecodes on the streaming path, held as ceilings.

Host seconds swing by ±20 % between runs on a shared host; the bytecodes an
interpreter executes for a deterministic simulation do not.  On a reduced
32-core memcpy this counts them with ``sys.settrace`` opcode events over a
window of the copy, in two measures:

* every bytecode executed per stepped cycle: the kernel's dispatch and
  commit drain plus every tick and hint the cycle runs;
* per ``AxiBufferNode`` tick on the sparse shape, its callees included.

Each ceiling is the value the design reaches today, so a change that adds
work on the path fails here before it shows in the stream benchmarks; a
change that lowers a count should lower its ceiling with it.  Counts
depend on the interpreter's bytecode, so they are pinned for CPython 3.11,
the version CI runs, and skipped elsewhere.
"""

from __future__ import annotations

import platform
import sys

import pytest

from repro.noc.axi_node import AxiBufferNode

from test_dram_indexed import memcpy32_submitted

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are pinned for CPython 3.11",
)

#: Cycles run before the traced window, and the window's length.
WARM, WINDOW = 600, 300

#: shape -> (active cores, bytes per copy, bytecodes per stepped cycle
#: today).  Dense is every core copying at once, sparse one core streaming a
#: long copy.
PER_CYCLE = {"dense": (32, 2048, 1568), "sparse": (1, 32768, 3041)}

#: Bytecodes per sparse-shape AxiBufferNode tick today, callees included.
PER_NODE_TICK = 144


def traced_window(active: int, size: int):
    """(bytecodes per stepped cycle, bytecodes per AxiBufferNode tick) over
    the window."""
    build, _handle, _futs = memcpy32_submitted(active=active, size=size)
    sim = build.design.sim
    sim.run(WARM)
    count = [0]
    node = [0, 0]  # bytecodes, ticks
    program = sim._program  # built by the first run; its slots call the bodies
    skip = set()  # the counting wrappers' own code is not traced

    def opcode(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return opcode

    def call(frame, event, arg):
        if frame.f_code in skip:
            return None
        frame.f_trace_opcodes = True
        return opcode

    for slot, comp in enumerate(program.components):
        if type(comp) is AxiBufferNode:
            def counted(cycle, body=program._tick_fns[slot]):
                before = count[0]
                body(cycle)
                node[0] += count[0] - before
                node[1] += 1

            skip.add(counted.__code__)
            program._tick_fns[slot] = counted
    stepped = sim.cycle - sim.cycles_skipped
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        sim.run(WINDOW)
    finally:
        sys.settrace(previous)
    stepped = sim.cycle - sim.cycles_skipped - stepped
    assert stepped and node[1]
    return count[0] / stepped, node[0] / node[1]


@pytest.mark.parametrize("shape", PER_CYCLE)
def test_bytecodes_per_stepped_cycle_stay_under_their_ceiling(shape):
    active, size, ceiling = PER_CYCLE[shape]
    per_cycle, per_node_tick = traced_window(active, size)
    assert per_cycle <= ceiling
    if shape == "sparse":
        assert per_node_tick <= PER_NODE_TICK
