"""Phased kernel-core machinery shared by the MachSuite accelerators.

The low-effort Beethoven MachSuite designs share one shape: stream operands
in through Readers, run a fixed-function pipeline over on-chip data, stream
results out through Writers (Section III-B: "implemented ... over an
afternoon").  ``PhasedKernelCore`` captures that shape: subclasses describe
each command as a :class:`KernelPlan` (loads -> stores), compute the stored
bytes from the loaded ones in :meth:`PhasedKernelCore.compute`, and the
base class runs the cycle-level FSM — parallel load streams, a busy window
for the compute schedule (whose cycle count the subclass derives from its
pipeline structure), parallel store streams, then the response.

Functional results are exact: the compute callback sees the actual loaded
bytes and produces the actual stored bytes, checked against the software
references in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.accelerator import AcceleratorCore
from repro.memory.types import ReadRequest, WriteRequest
from repro.sim import NEVER


@dataclass
class KernelPlan:
    """One command's worth of work: plain data, so a snapshot holds it whole."""

    loads: List[Tuple[str, int, int]]  # (reader channel name, addr, bytes)
    stores: List[Tuple[str, int]]  # (writer channel name, addr); data from compute
    cmd: Dict[str, object] = field(default_factory=dict)  # the command's fields
    response: Dict[str, object] = field(default_factory=dict)


class PhasedKernelCore(AcceleratorCore):
    """Load-compute-store FSM; subclasses provide ``plan()`` and IO."""

    IDLE, LOAD, COMPUTE, STORE, RESPOND = range(5)

    _state = ("_phase", "_plan", "_load_buf", "_load_need", "_load_requested",
              "_store_data", "_store_off", "_stores_done", "_compute_done_at",
              "commands_completed", "total_compute_cycles")

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._phase = self.IDLE
        self._plan: Optional[KernelPlan] = None
        self._load_buf: Dict[str, bytearray] = {}
        self._load_need: Dict[str, int] = {}
        self._load_requested: bool = False
        self._store_data: Dict[str, bytes] = {}
        self._store_off: Dict[str, int] = {}
        self._stores_done: int = 0
        # Absolute end of the compute window (not a countdown), so a computing
        # core is a no-op until then and can publish the cycle as its hint.
        self._compute_done_at = 0
        self.commands_completed = 0
        self.total_compute_cycles = 0

    # -- subclass interface ---------------------------------------------------
    def plan(self, cmd: Dict[str, object]) -> KernelPlan:
        raise NotImplementedError

    def compute(self, plan: KernelPlan, loaded: Dict[str, bytes]) -> Tuple[Dict[str, bytes], int]:
        """Map the loaded bytes (by channel name) to (stored bytes by channel
        name, compute busy cycles)."""
        raise NotImplementedError

    @property
    def command_io(self):
        """The BeethovenIO commands arrive on (first declared by default)."""
        return self.ios[0]

    # -- FSM ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if self._phase == self.IDLE:
            self._tick_idle()
        elif self._phase == self.LOAD:
            self._tick_load(cycle)
        elif self._phase == self.COMPUTE:
            self._tick_compute(cycle)
        elif self._phase == self.STORE:
            self._tick_store()
        elif self._phase == self.RESPOND:
            self._tick_respond()

    def next_event(self, cycle: int) -> Optional[float]:
        if self._phase == self.IDLE:
            return NEVER  # woken by the next command
        if self._phase == self.COMPUTE:
            return max(cycle, self._compute_done_at)
        # LOAD/STORE/RESPOND advance on channel traffic, except a LOAD with
        # no loads, which moves on by itself: tick every cycle.
        return None

    def _tick_idle(self) -> None:
        io = self.command_io
        if not io.req.can_pop():
            return
        cmd = io.req.pop()
        self._plan = self.plan(cmd)
        self._load_buf = {name: bytearray() for name, _, _ in self._plan.loads}
        self._load_need = {name: nbytes for name, _, nbytes in self._plan.loads}
        self._load_requested = False
        self._phase = self.LOAD

    def _tick_load(self, cycle: int) -> None:
        plan = self._plan
        if not self._load_requested:
            if all(
                self.get_reader_module(name).request.can_push()
                for name, _, _ in plan.loads
            ):
                for name, addr, nbytes in plan.loads:
                    self.get_reader_module(name).request.push(ReadRequest(addr, nbytes))
                self._load_requested = True
            if not plan.loads:
                self._load_requested = True
            return
        done = True
        for name, _, _ in plan.loads:
            reader = self.get_reader_module(name)
            buf = self._load_buf[name]
            while reader.data.can_pop() and len(buf) < self._load_need[name]:
                buf.extend(reader.data.pop())
            if len(buf) < self._load_need[name]:
                done = False
        if done:
            outputs, cycles = self.compute(
                plan, {name: bytes(buf) for name, buf in self._load_buf.items()}
            )
            self._store_data = outputs
            busy = max(int(cycles), 1)
            self.total_compute_cycles += busy
            self._compute_done_at = cycle + busy
            self._phase = self.COMPUTE

    def _tick_compute(self, cycle: int) -> None:
        if cycle < self._compute_done_at:
            return
        plan = self._plan
        if not plan.stores:
            self._phase = self.RESPOND
            return
        for name, addr in plan.stores:
            writer = self.get_writer_module(name)
            data = self._store_data[name]
            writer.request.push(WriteRequest(addr, len(data)))
        self._store_off = {name: 0 for name, _ in plan.stores}
        self._stores_done = 0
        self._phase = self.STORE

    def _tick_store(self) -> None:
        plan = self._plan
        finished = 0
        for name, _ in plan.stores:
            writer = self.get_writer_module(name)
            data = self._store_data[name]
            off = self._store_off[name]
            if off < len(data) and writer.data.can_push():
                chunk = data[off : off + writer.data_bytes]
                writer.data.push(bytes(chunk))
                self._store_off[name] = off + len(chunk)
            if writer.done.can_pop():
                writer.done.pop()
                self._stores_done += 1
        if self._stores_done == len(plan.stores):
            self._phase = self.RESPOND

    def _tick_respond(self) -> None:
        io = self.command_io
        if io.resp.can_push():
            io.resp.push(self._plan.response)
            self.commands_completed += 1
            self._plan = None
            self._phase = self.IDLE
