"""AXI protocol monitor.

The monitor snoops an :class:`~repro.axi.types.AxiPort` and asserts the
ordering rules the memory controller and every master must obey.  It is wired
into every simulation built by the Beethoven elaborator, so a protocol
violation in any model fails tests instead of silently skewing results.

It also doubles as the transaction tracer behind the Figure-5 timelines: for
every burst it records issue and completion cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NoReturn, Optional

from repro.axi.types import AxiPort
from repro.sim import Component, SimulationError


@dataclass
class TxnRecord:
    """Lifetime record of one AXI burst, for timeline reconstruction."""

    kind: str  # "read" | "write"
    axi_id: int
    addr: int
    length: int
    issue_cycle: int
    first_data_cycle: Optional[int] = None
    complete_cycle: Optional[int] = None
    beats: int = 0  # R beats seen so far (reads only)

    @property
    def latency(self) -> Optional[int]:
        if self.complete_cycle is None:
            return None
        return self.complete_cycle - self.issue_cycle


class AxiMonitor(Component):
    """Passive checker + tracer attached between a master and a slave.

    The monitor does not own the port's channels; it inspects committed
    (visible) items non-destructively each cycle by diffing pop counters, so
    it must be ticked *after* being attached to the same simulator as the
    endpoints.  To keep things simple and robust we instead intercept at
    push-time: the endpoints are expected to call :meth:`on_*` hooks.  The
    standard slave (:class:`repro.dram.controller.MemoryController`) and all
    Beethoven masters call these hooks through :class:`MonitoredAxiPort`.
    """

    _state = ("records", "_open_reads", "_open_writes", "_read_order", "_write_order",
              "errors")

    def __init__(self, port_name: str) -> None:
        super().__init__(f"mon.{port_name}")
        self.port_name = port_name
        self.records: List[TxnRecord] = []
        self._open_reads: Dict[int, TxnRecord] = {}  # tag -> record
        self._open_writes: Dict[int, TxnRecord] = {}
        self._read_order: Dict[int, Deque[int]] = {}  # id -> tags
        self._write_order: Dict[int, Deque[int]] = {}
        self.errors: List[str] = []

    # -- hooks ---------------------------------------------------------------
    def on_ar(self, cycle: int, tag: int, axi_id: int, addr: int, length: int) -> None:
        rec = TxnRecord("read", axi_id, addr, length, cycle)
        self._open_reads[tag] = rec
        self._read_order.setdefault(axi_id, deque()).append(tag)
        self.records.append(rec)

    def on_r(self, cycle: int, tag: int, axi_id: int, last: bool) -> None:
        # Once per R beat on the memory port: plain-dict subscripts, and
        # the open record counts its own beats.
        try:
            rec = self._open_reads[tag]
        except KeyError:
            self._fail(f"R beat for unknown read tag {tag}")
        try:
            order = self._read_order[axi_id]
        except KeyError:
            order = None
        if not order or order[0] != tag:
            self._fail(
                f"same-ID read reorder on id {axi_id}: beat for tag {tag} "
                f"while tag {order[0] if order else '?'} is outstanding"
            )
        beats = rec.beats = rec.beats + 1
        if beats == 1:
            rec.first_data_cycle = cycle
        if last:
            if beats != rec.length:
                self._fail(f"read tag {tag} returned {beats} beats, expected {rec.length}")
            rec.complete_cycle = cycle
            order.popleft()
            del self._open_reads[tag]
        elif beats >= rec.length:
            self._fail(f"read tag {tag} missing last on final beat")

    def on_aw(self, cycle: int, tag: int, axi_id: int, addr: int, length: int) -> None:
        rec = TxnRecord("write", axi_id, addr, length, cycle)
        self._open_writes[tag] = rec
        self._write_order.setdefault(axi_id, deque()).append(tag)
        self.records.append(rec)

    def on_w_last(self, cycle: int, tag: int) -> None:
        rec = self._open_writes.get(tag)
        if rec is not None and rec.first_data_cycle is None:
            rec.first_data_cycle = cycle

    def on_b(self, cycle: int, tag: int, axi_id: int) -> None:
        rec = self._open_writes.get(tag)
        if rec is None:
            self._fail(f"B response for unknown write tag {tag}")
            return
        order = self._write_order.get(axi_id)
        if not order or order[0] != tag:
            self._fail(f"same-ID write response reorder on id {axi_id}")
        else:
            order.popleft()
        rec.complete_cycle = cycle
        del self._open_writes[tag]

    # -- Component -------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        pass  # purely hook-driven

    def next_event(self, cycle: int):
        from repro.sim import NEVER

        return NEVER  # never self-schedules; endpoints drive the hooks

    def wake_channels(self):
        return []  # tick is a no-op under all conditions; hooks do the work

    @property
    def metric_path(self) -> str:
        return "axi/" + self.port_name

    def register_metrics(self, scope) -> None:
        scope.bind("bursts", lambda: len(self.records))
        scope.bind(
            "read_bursts",
            lambda: sum(1 for r in self.records if r.kind == "read"),
        )
        scope.bind(
            "write_bursts",
            lambda: sum(1 for r in self.records if r.kind == "write"),
        )
        scope.bind("outstanding", self.outstanding)
        scope.bind("protocol_errors", lambda: len(self.errors))

    def _fail(self, msg: str) -> NoReturn:
        self.errors.append(msg)
        raise SimulationError(f"AXI protocol violation on {self.port_name}: {msg}") from None

    # -- analysis ----------------------------------------------------------------
    def completed(self, kind: Optional[str] = None) -> List[TxnRecord]:
        recs = [r for r in self.records if r.complete_cycle is not None]
        if kind is not None:
            recs = [r for r in recs if r.kind == kind]
        return recs

    def outstanding(self) -> int:
        return len(self._open_reads) + len(self._open_writes)


class MonitoredAxiPort:
    """Wraps an :class:`AxiPort` so endpoint models fire monitor hooks.

    Masters push AR/AW/W through this wrapper; the slave pushes R/B through
    it.  The wrapper keeps the W-beat to AW-tag association (AXI4: write data
    arrives in address order).
    """

    _state = ("monitor", "_w_tags", "_w_beats_left")

    def __init__(self, port: AxiPort, monitor: AxiMonitor) -> None:
        self.port = port
        self.monitor = monitor
        self._w_tags: Deque[int] = deque()
        self._w_beats_left: Deque[int] = deque()

    # master-side helpers
    def push_ar(self, cycle: int, req) -> None:
        self.port.params.check_burst(req.addr, req.length)
        self.port.ar.push(req)
        self.monitor.on_ar(cycle, req.tag, req.axi_id, req.addr, req.length)

    def push_aw(self, cycle: int, req) -> None:
        self.port.params.check_burst(req.addr, req.length)
        self.port.aw.push(req)
        self._w_tags.append(req.tag)
        self._w_beats_left.append(req.length)
        self.monitor.on_aw(cycle, req.tag, req.axi_id, req.addr, req.length)

    def push_w(self, cycle: int, beat) -> None:
        if not self._w_tags:
            raise SimulationError("W beat with no outstanding AW")
        self.port.w.push(beat)
        self._w_beats_left[0] -= 1
        if beat.last:
            if self._w_beats_left[0] != 0:
                raise SimulationError("W last asserted before burst complete")
            tag = self._w_tags.popleft()
            self._w_beats_left.popleft()
            self.monitor.on_w_last(cycle, tag)
        elif self._w_beats_left[0] == 0:
            raise SimulationError("W burst overran its AW length")

    # slave-side helpers: ``item`` is ``(axi_id, payload)``
    def push_r(self, cycle: int, item) -> None:
        self.port.r.push(item)
        axi_id, beat = item
        self.monitor.on_r(cycle, beat.tag, axi_id, beat.last)

    def push_b(self, cycle: int, item) -> None:
        self.port.b.push(item)
        axi_id, resp = item
        self.monitor.on_b(cycle, resp.tag, axi_id)
