"""The Beethoven ``Reader`` primitive.

A Reader streams a contiguous memory region to the core at a configurable
data-port width.  Internally it maximises throughput by *prefetching*:
splitting the logical transfer into several AXI bursts, keeping many of them
in flight at once, and (with transaction-level parallelism enabled) spreading
them over multiple AXI IDs so the memory controller may service them out of
order.  Prefetched data lands in an on-chip buffer whose size bounds how far
ahead the Reader runs — exactly the resource/parallelism trade-off the paper
describes ("Readers use on-chip memory to store prefetched data internally").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.axi.types import ARReq, AxiParams
from repro.memory.master import BurstMaster, MasterTuning
from repro.memory.types import split_into_bursts
from repro.sim import NEVER


@dataclass
class _SubTxn:
    addr: int
    beats: int
    payload_bytes: int  # bytes of this burst the user actually wants
    axi_id: int = 0
    tag: int = -1
    received: bytearray = field(default_factory=bytearray)
    delivered: int = 0


class Reader(BurstMaster):
    """Streams memory to the core; the core pops ``data`` in program order."""

    _addr_req = ARReq
    _span_kind = "read"

    # Fault detection (repro.faults): when the elaborator compiles a
    # FaultPlan it points every master at the shared FaultState so beats
    # arriving with ``err`` set poison the owning core's in-flight command
    # (detected corruption, never silent).  Class attributes keep existing
    # constructions unchanged.
    _fault_state = None
    _fault_key = None

    _state = ("_pending", "_order", "_reserved_bytes", "_buffer_ok_since",
              "bytes_delivered", "stall_buffer_cycles")

    def __init__(
        self,
        name: str,
        data_bytes: int,
        axi_params: AxiParams,
        tuning: Optional[MasterTuning] = None,
    ) -> None:
        super().__init__(f"reader.{name}", data_bytes, axi_params, tuning)
        self._pending: Deque[_SubTxn] = deque()  # not yet issued
        self._order: Deque[_SubTxn] = deque()  # issued or pending, delivery order
        self._reserved_bytes = 0
        self.bytes_delivered = 0
        # The prefetch buffer is the Reader's own issue gate:
        # ``_buffer_ok_since`` is the cycle it last stopped being binding.
        self._buffer_ok_since = 0
        self.stall_buffer_cycles = 0

    def register_metrics(self, scope) -> None:
        scope.bind("bytes_delivered", lambda: self.bytes_delivered)
        scope.bind("reserved_bytes", lambda: self._reserved_bytes)
        scope.bind("stall_buffer_cycles", lambda: self.stall_buffer_cycles)
        super().register_metrics(scope)

    # -- behaviour ------------------------------------------------------------
    # Each phase runs only behind the entry guard :meth:`compile_tick` tests
    # for it (a visible request, an issuable head, a visible R beat, a
    # delivery window with room), and checks just the rest of its condition.
    def _accept_request(self, cycle: int) -> None:
        # Only buffer one logical request's segments at a time beyond what is
        # in flight, to bound bookkeeping.
        if len(self._pending) > 2 * self.tuning.max_in_flight:
            return
        req = self.request.pop()
        self.requests_accepted += 1
        beat = self.port.params.beat_bytes
        if not self._pending:
            # Issue runs after accept in the same tick, so the new head is
            # eligible for issue attention from this very cycle.
            self._head_since = cycle
        for addr, beats, payload in split_into_bursts(
            req.addr, req.len_bytes, beat, self.tuning.max_txn_beats
        ):
            sub = _SubTxn(addr, beats, payload)
            self._pending.append(sub)
            self._order.append(sub)

    def _gate_stall(self, t: int, cycle: int) -> int:
        """The prefetch buffer gates issue after the in-flight window."""
        ok = self._buffer_ok_since
        if ok > t:
            adv = ok if ok < cycle else cycle
            self.stall_buffer_cycles += adv - t
            t = adv
        return t

    def _issue_ar(self, cycle: int) -> None:
        sub = self._pending[0]
        burst_bytes = sub.beats * self.port.params.beat_bytes
        if self._reserved_bytes + burst_bytes > self.tuning.buffer_bytes:
            return
        if not self.port.ar.can_push():
            return
        self._issue(cycle, sub, self.port.ar)
        self._pending.popleft()
        self._reserved_bytes += burst_bytes

    def _collect_beats(self, cycle: int) -> None:
        axi_id, beat = self.port.r.pop()
        sub = self._by_tag.get(beat.tag)
        if sub is None:
            raise RuntimeError(f"{self.name}: R beat with unknown tag")
        if beat.err and self._fault_state is not None:
            self._fault_state.mark_detected(
                self._fault_key, cycle, self.name, f"err beat id={axi_id}"
            )
        sub.received.extend(beat.data)
        if beat.last:
            self._retire(cycle, beat.tag)

    def _deliver(self, cycle: int) -> None:
        sub = self._order[0]
        end = sub.delivered + self.data_bytes
        if end > sub.payload_bytes:
            # Partial tail chunk: only deliver once all payload bytes arrived.
            if len(sub.received) >= sub.payload_bytes and sub.delivered < sub.payload_bytes:
                chunk = bytes(sub.received[sub.delivered : sub.payload_bytes])
                self.data.push(chunk)
                self.bytes_delivered += len(chunk)
                sub.delivered = sub.payload_bytes
        elif len(sub.received) >= end:
            self.data.push(bytes(sub.received[sub.delivered : end]))
            sub.delivered = end
            self.bytes_delivered += self.data_bytes
        if sub.delivered >= sub.payload_bytes:
            self._order.popleft()
            self._reserved_bytes -= sub.beats * self.port.params.beat_bytes
            # Freed buffer space is usable from the next tick.
            self._buffer_ok_since = cycle + 1

    def _deliverable(self) -> bool:
        """Would :meth:`_deliver` push a chunk if ``data`` had space?"""
        if not self._order:
            return False
        sub = self._order[0]
        end = sub.delivered + self.data_bytes
        if end > sub.payload_bytes:
            return len(sub.received) >= sub.payload_bytes and sub.delivered < sub.payload_bytes
        return len(sub.received) >= end

    def compile_tick(self):
        """The tick: accept a request, issue an AR, collect an R beat, then
        deliver a chunk — each phase behind its entry guard, inlined so an
        idle phase costs one comparison instead of a method call."""
        request = self.request
        data = self.data
        port_ar = self.port.ar
        port_r = self.port.r
        tuning = self.tuning
        accept = self._accept_request
        issue = self._issue_ar
        collect = self._collect_beats
        deliver = self._deliver

        def tick(cycle, self=self):
            if request._pop_count < len(request._items):
                accept(cycle)
            if (
                self._pending
                and cycle >= self._next_issue_cycle
                and self._in_flight < tuning.max_in_flight
            ):
                issue(cycle)
            if port_r._pop_count < len(port_r._items):
                collect(cycle)
            if self._order and (
                len(data._items) + len(data._staged) < data.capacity
            ):
                deliver(cycle)

        return tick

    def next_event(self, cycle: int) -> float:
        """AR issue is self-scheduled (issue-gap FSM); everything else —
        request intake, R-beat collection, freed buffer space — arrives as
        channel traffic, and delivery of already-collected bytes is flagged
        as an immediate event.  Both terms are gated on the output channel
        actually having room: a stalled Reader sleeps until the pop that
        frees space wakes it (the AR and data channels are in its wake set).
        """
        nxt = NEVER
        if self._pending and self._in_flight < self.tuning.max_in_flight:
            sub = self._pending[0]
            burst_bytes = sub.beats * self.port.params.beat_bytes
            if (
                self._reserved_bytes + burst_bytes <= self.tuning.buffer_bytes
                and self.port.ar.can_push()
            ):
                nxt = min(nxt, max(cycle, self._next_issue_cycle))
        if self._deliverable() and self.data.can_push():
            nxt = min(nxt, cycle)
        return nxt

    # -- status ------------------------------------------------------------
    def idle(self) -> bool:
        return not self._pending and not self._order and not len(self.request)
