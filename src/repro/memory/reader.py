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
from typing import Deque, Dict, Optional

from repro.axi.types import ARReq, AxiParams, AxiPort
from repro.memory.types import ReadRequest, split_into_bursts
from repro.noc.axi_node import bits_for
from repro.sim import NEVER, ChannelQueue, Component


@dataclass
class ReaderTuning:
    """Platform-tunable Reader internals (paper: 'Reader/Writer internal
    performance knobs').  ``n_axi_ids = 1`` disables TLP."""

    max_txn_beats: int = 64
    n_axi_ids: int = 4
    max_in_flight: int = 4
    buffer_bytes: int = 4 * 4096
    ar_issue_gap: int = 1  # min cycles between AR issues (request FSM cost)

    @property
    def id_bits(self) -> int:
        return bits_for(self.n_axi_ids)


@dataclass
class _SubTxn:
    addr: int
    beats: int
    payload_bytes: int  # bytes of this burst the user actually wants
    axi_id: int = 0
    tag: int = -1
    received: bytearray = field(default_factory=bytearray)
    delivered: int = 0


class Reader(Component):
    """Streams memory to the core; the core pops ``data`` in program order."""

    # Fault detection (repro.faults): when the elaborator compiles a
    # FaultPlan it points every master at the shared FaultState so beats
    # arriving with ``err`` set poison the owning core's in-flight command
    # (detected corruption, never silent).  Class attributes keep existing
    # constructions unchanged.
    _fault_state = None
    _fault_key = None

    # wiring, rebuilt by elaboration
    _snapshot_exclude = ("port", "tuning", "data", "request", "spans")

    def __init__(
        self,
        name: str,
        data_bytes: int,
        axi_params: AxiParams,
        tuning: Optional[ReaderTuning] = None,
    ) -> None:
        super().__init__(f"reader.{name}")
        self.data_bytes = data_bytes
        self.tuning = tuning or ReaderTuning()
        beat = axi_params.beat_bytes
        if data_bytes < 1 or data_bytes > beat or beat % data_bytes:
            raise ValueError(
                f"reader port width {data_bytes} must divide the bus width {beat}"
            )
        self.port = AxiPort(
            AxiParams(
                beat,
                max(self.tuning.id_bits, 1),
                axi_params.addr_bits,
                axi_params.max_burst_beats,
            ),
            f"{self.name}.axi",
        )
        self.request: ChannelQueue[ReadRequest] = ChannelQueue(2, f"{self.name}.req")
        self.data: ChannelQueue[bytes] = ChannelQueue(2, f"{self.name}.data")

        self._pending: Deque[_SubTxn] = deque()  # not yet issued
        self._order: Deque[_SubTxn] = deque()  # issued or pending, delivery order
        self._by_tag: Dict[int, _SubTxn] = {}
        self._in_flight = 0
        self._reserved_bytes = 0
        self._next_id = 0
        self._next_ar_cycle = 0
        self.bytes_delivered = 0
        self.requests_accepted = 0
        self.bursts_issued = 0
        # Contention accounting (repro.obs.attribution): per-burst AR stall
        # attribution, computed retroactively at issue time from stamps that
        # are only updated by genuinely mutating ticks (so the counters stay
        # bit-identical under every scheduling mode, including fast-forward
        # jumps over quiescent windows).  ``_head_since`` is the cycle the
        # current head-of-pending burst became eligible for issue;
        # ``_inflight_ok_since``/``_buffer_ok_since`` are the cycles the
        # in-flight window and prefetch buffer last stopped being binding.
        self._head_since = 0
        self._inflight_ok_since = 0
        self._buffer_ok_since = 0
        self.stall_gap_cycles = 0
        self.stall_inflight_cycles = 0
        self.stall_buffer_cycles = 0
        self.stall_backpressure_cycles = 0
        # Observability: set by the elaborator so AXI bursts are attributed
        # to the host command currently executing on this Reader's core.
        self.spans = None
        self.span_key = None
        self._span_by_tag: Dict[int, int] = {}

    # -- elaboration hooks ---------------------------------------------------
    def channels(self):
        return [self.request, self.data] + self.port.channels()

    def register_metrics(self, scope) -> None:
        scope.bind("bytes_delivered", lambda: self.bytes_delivered)
        scope.bind("requests_accepted", lambda: self.requests_accepted)
        scope.bind("bursts_issued", lambda: self.bursts_issued)
        scope.bind("in_flight", lambda: self._in_flight)
        scope.bind("reserved_bytes", lambda: self._reserved_bytes)
        scope.bind("stall_gap_cycles", lambda: self.stall_gap_cycles)
        scope.bind("stall_inflight_cycles", lambda: self.stall_inflight_cycles)
        scope.bind("stall_buffer_cycles", lambda: self.stall_buffer_cycles)
        scope.bind(
            "stall_backpressure_cycles", lambda: self.stall_backpressure_cycles
        )

    # -- behaviour ------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._accept_request(cycle)
        self._issue_ar(cycle)
        self._collect_beats(cycle)
        self._deliver(cycle)

    def _accept_request(self, cycle: int) -> None:
        if not self.request.can_pop():
            return
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

    def _attribute_stall(self, cycle: int) -> None:
        """Book the cycles the issued head burst waited, split by the first
        binding reason in guard order: issue-gap FSM, in-flight window,
        prefetch-buffer space, then downstream AR backpressure."""
        t = self._head_since
        if t >= cycle:
            return
        gap_until = self._next_ar_cycle  # pre-issue value: the old gap deadline
        if gap_until > t:
            adv = gap_until if gap_until < cycle else cycle
            self.stall_gap_cycles += adv - t
            t = adv
        ok = self._inflight_ok_since
        if ok > t:
            adv = ok if ok < cycle else cycle
            self.stall_inflight_cycles += adv - t
            t = adv
        ok = self._buffer_ok_since
        if ok > t:
            adv = ok if ok < cycle else cycle
            self.stall_buffer_cycles += adv - t
            t = adv
        if cycle > t:
            self.stall_backpressure_cycles += cycle - t

    def _issue_ar(self, cycle: int) -> None:
        if not self._pending or cycle < self._next_ar_cycle:
            return
        if self._in_flight >= self.tuning.max_in_flight:
            return
        sub = self._pending[0]
        burst_bytes = sub.beats * self.port.params.beat_bytes
        if self._reserved_bytes + burst_bytes > self.tuning.buffer_bytes:
            return
        if not self.port.ar.can_push():
            return
        self._attribute_stall(cycle)
        sub.axi_id = self._next_id
        self._next_id = (self._next_id + 1) % max(self.tuning.n_axi_ids, 1)
        req = ARReq(axi_id=sub.axi_id, addr=sub.addr, length=sub.beats)
        sub.tag = req.tag
        self.port.ar.push(req)
        self._by_tag[req.tag] = sub
        self._pending.popleft()
        self._in_flight += 1
        self.bursts_issued += 1
        self._reserved_bytes += burst_bytes
        self._next_ar_cycle = cycle + self.tuning.ar_issue_gap
        # The next pending burst (if any) cannot issue before the next tick.
        self._head_since = cycle + 1
        if self.spans is not None:
            self._span_by_tag[req.tag] = self.spans.axi_begin(
                cycle, self.span_key, self.name, "read", sub.addr, sub.beats
            )

    def _collect_beats(self, cycle: int) -> None:
        if not self.port.r.can_pop():
            return
        beat = self.port.r.pop()
        sub = self._by_tag.get(beat.tag)
        if sub is None:
            raise RuntimeError(f"{self.name}: R beat with unknown tag")
        if beat.err and self._fault_state is not None:
            self._fault_state.mark_detected(
                self._fault_key, cycle, self.name, f"err beat id={beat.axi_id}"
            )
        sub.received.extend(beat.data)
        if beat.last:
            self._in_flight -= 1
            if self._in_flight == self.tuning.max_in_flight - 1:
                # Freed slot is usable from the next tick (issue ran already).
                self._inflight_ok_since = cycle + 1
            del self._by_tag[beat.tag]
            span_id = self._span_by_tag.pop(beat.tag, 0)
            if span_id and self.spans is not None:
                self.spans.axi_end(span_id, cycle)

    def _deliver(self, cycle: int) -> None:
        if not self._order or not self.data.can_push():
            return
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
        """Specialised tick: the four phases with their entry guards inlined,
        so an idle phase costs one comparison instead of a method call."""
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
                and cycle >= self._next_ar_cycle
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
                nxt = min(nxt, max(cycle, self._next_ar_cycle))
        if self._deliverable() and self.data.can_push():
            nxt = min(nxt, cycle)
        return nxt

    # -- status ------------------------------------------------------------
    def idle(self) -> bool:
        return not self._pending and not self._order and not len(self.request)
