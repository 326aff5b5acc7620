"""The Beethoven ``Writer`` primitive.

The core pushes fixed-width data chunks; the Writer packs them into beats,
cuts the logical transfer into AXI bursts, and streams them out — across
several AXI IDs when transaction-level parallelism is enabled, so write
bursts may complete out of order at the controller ("writes finished early",
as the paper observes for the Beethoven memcpy).  A ``done`` token is emitted
when every burst of a request has its write response.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.axi.types import AWReq, AxiParams, AxiPort, WBeat
from repro.memory.types import WriteRequest, split_into_bursts
from repro.noc.axi_node import bits_for
from repro.sim import NEVER, ChannelQueue, Component


@dataclass
class WriterTuning:
    """Platform-tunable Writer internals; ``n_axi_ids = 1`` disables TLP."""

    max_txn_beats: int = 64
    n_axi_ids: int = 4
    max_in_flight: int = 4
    buffer_bytes: int = 4 * 4096
    aw_issue_gap: int = 1

    @property
    def id_bits(self) -> int:
        return bits_for(self.n_axi_ids)


@dataclass
class _WrSubTxn:
    addr: int
    beats: int
    payload_bytes: int
    axi_id: int = 0
    tag: int = -1
    queued: bool = False  # payload carved off and waiting for / past AW
    issued: bool = False
    beats_sent: int = 0
    done: bool = False


@dataclass
class _ActiveRequest:
    req: WriteRequest
    subs: list = field(default_factory=list)
    buffered: int = 0  # payload bytes received from the core

    def all_done(self) -> bool:
        return all(s.done for s in self.subs)


class Writer(Component):
    """Streams core data to memory; pops ``done`` when the request landed."""

    # wiring, rebuilt by elaboration
    _snapshot_exclude = ("port", "tuning", "data", "request", "done", "spans")

    def __init__(
        self,
        name: str,
        data_bytes: int,
        axi_params: AxiParams,
        tuning: Optional[WriterTuning] = None,
    ) -> None:
        super().__init__(f"writer.{name}")
        self.data_bytes = data_bytes
        self.tuning = tuning or WriterTuning()
        beat = axi_params.beat_bytes
        if data_bytes < 1 or data_bytes > beat or beat % data_bytes:
            raise ValueError(
                f"writer port width {data_bytes} must divide the bus width {beat}"
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
        self.request: ChannelQueue[WriteRequest] = ChannelQueue(2, f"{self.name}.req")
        self.data: ChannelQueue[bytes] = ChannelQueue(2, f"{self.name}.data")
        self.done: ChannelQueue[bool] = ChannelQueue(2, f"{self.name}.done")

        self._requests: Deque[_ActiveRequest] = deque()
        self._fill_buffer = bytearray()  # staging for the request being fed
        self._issue_q: Deque[_WrSubTxn] = deque()  # fully-buffered, awaiting AW
        self._queued_payload: Dict[int, bytes] = {}  # id(sub) -> burst payload
        self._w_stream: Deque[_WrSubTxn] = deque()  # AW sent, W beats owed
        self._sub_payload: Dict[int, bytes] = {}  # tag -> burst payload
        self._by_tag: Dict[int, _WrSubTxn] = {}
        self._in_flight = 0
        self._buffered_bytes = 0
        self._next_id = 0
        self._next_aw_cycle = 0
        self.bytes_accepted = 0
        self.requests_accepted = 0
        self.bursts_issued = 0
        # Contention accounting (repro.obs.attribution): per-burst AW stall
        # attribution, computed retroactively at issue time from stamps that
        # are only updated by genuinely mutating ticks — see Reader for the
        # determinism argument.  There is no buffer gate on the AW path, so
        # the reasons are gap / in-flight window / downstream backpressure.
        self._head_since = 0
        self._inflight_ok_since = 0
        self.stall_gap_cycles = 0
        self.stall_inflight_cycles = 0
        self.stall_backpressure_cycles = 0
        # Observability: set by the elaborator so AXI bursts are attributed
        # to the host command currently executing on this Writer's core.
        self.spans = None
        self.span_key = None
        self._span_by_tag: Dict[int, int] = {}

    def channels(self):
        return [self.request, self.data, self.done] + self.port.channels()

    def register_metrics(self, scope) -> None:
        scope.bind("bytes_accepted", lambda: self.bytes_accepted)
        scope.bind("requests_accepted", lambda: self.requests_accepted)
        scope.bind("bursts_issued", lambda: self.bursts_issued)
        scope.bind("in_flight", lambda: self._in_flight)
        scope.bind("buffered_bytes", lambda: self._buffered_bytes)
        scope.bind("stall_gap_cycles", lambda: self.stall_gap_cycles)
        scope.bind("stall_inflight_cycles", lambda: self.stall_inflight_cycles)
        scope.bind(
            "stall_backpressure_cycles", lambda: self.stall_backpressure_cycles
        )

    # -- behaviour ----------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._accept_request()
        self._accept_data(cycle)
        self._issue_aw(cycle)
        self._stream_w()
        self._collect_b(cycle)
        self._report_done()

    def _accept_request(self) -> None:
        if not self.request.can_pop() or len(self._requests) >= 2:
            return
        req = self.request.pop()
        self.requests_accepted += 1
        active = _ActiveRequest(req)
        beat = self.port.params.beat_bytes
        for addr, beats, payload in split_into_bursts(
            req.addr, req.len_bytes, beat, self.tuning.max_txn_beats
        ):
            active.subs.append(_WrSubTxn(addr, beats, payload))
        self._requests.append(active)

    def _accept_data(self, cycle: int) -> None:
        """Take one core chunk per cycle into the staging buffer, then carve
        fully-buffered bursts off the front (store-and-forward per burst)."""
        if not self._requests:
            return
        active = self._requests[0]
        total_payload = active.req.len_bytes
        if (
            self.data.can_pop()
            and active.buffered < total_payload
            and self._buffered_bytes + self.data_bytes <= self.tuning.buffer_bytes
        ):
            chunk = self.data.pop()
            self._fill_buffer.extend(chunk)
            active.buffered += len(chunk)
            self._buffered_bytes += len(chunk)
            self.bytes_accepted += len(chunk)
        # Release bursts whose payload is fully staged.
        for sub in active.subs:
            if sub.queued:
                continue
            if len(self._fill_buffer) >= sub.payload_bytes:
                payload = bytes(self._fill_buffer[: sub.payload_bytes])
                del self._fill_buffer[: sub.payload_bytes]
                sub.queued = True
                if not self._issue_q:
                    # Issue runs after burst release in the same tick, so the
                    # new head is eligible for issue from this very cycle.
                    self._head_since = cycle
                self._issue_q.append(sub)
                self._queued_payload[id(sub)] = payload
            break  # only the front un-queued burst can complete

    def _attribute_stall(self, cycle: int) -> None:
        """Book the cycles the issued head burst waited, split by the first
        binding reason in guard order: issue-gap FSM, in-flight window, then
        downstream AW backpressure."""
        t = self._head_since
        if t >= cycle:
            return
        gap_until = self._next_aw_cycle  # pre-issue value: the old gap deadline
        if gap_until > t:
            adv = gap_until if gap_until < cycle else cycle
            self.stall_gap_cycles += adv - t
            t = adv
        ok = self._inflight_ok_since
        if ok > t:
            adv = ok if ok < cycle else cycle
            self.stall_inflight_cycles += adv - t
            t = adv
        if cycle > t:
            self.stall_backpressure_cycles += cycle - t

    def _issue_aw(self, cycle: int) -> None:
        if not self._issue_q or cycle < self._next_aw_cycle:
            return
        if self._in_flight >= self.tuning.max_in_flight:
            return
        if not self.port.aw.can_push():
            return
        self._attribute_stall(cycle)
        sub = self._issue_q.popleft()
        sub.axi_id = self._next_id
        self._next_id = (self._next_id + 1) % max(self.tuning.n_axi_ids, 1)
        req = AWReq(axi_id=sub.axi_id, addr=sub.addr, length=sub.beats)
        sub.tag = req.tag
        sub.issued = True
        payload = self._queued_payload.pop(id(sub))
        self._sub_payload[req.tag] = payload
        self._by_tag[req.tag] = sub
        self.port.aw.push(req)
        self._w_stream.append(sub)
        self._in_flight += 1
        self.bursts_issued += 1
        self._next_aw_cycle = cycle + self.tuning.aw_issue_gap
        # The next queued burst (if any) cannot issue before the next tick.
        self._head_since = cycle + 1
        if self.spans is not None:
            self._span_by_tag[req.tag] = self.spans.axi_begin(
                cycle, self.span_key, self.name, "write", sub.addr, sub.beats
            )

    def _stream_w(self) -> None:
        if not self._w_stream or not self.port.w.can_push():
            return
        sub = self._w_stream[0]
        payload = self._sub_payload[sub.tag]
        beat_bytes = self.port.params.beat_bytes
        start = sub.beats_sent * beat_bytes
        chunk = payload[start : start + beat_bytes]
        strb = None
        if len(chunk) < beat_bytes:
            strb = b"\x01" * len(chunk) + b"\x00" * (beat_bytes - len(chunk))
            chunk = chunk + bytes(beat_bytes - len(chunk))
        last = sub.beats_sent == sub.beats - 1
        self.port.w.push(WBeat(chunk, last=last, strb=strb))
        sub.beats_sent += 1
        if last:
            self._w_stream.popleft()

    def _collect_b(self, cycle: int) -> None:
        if not self.port.b.can_pop():
            return
        resp = self.port.b.pop()
        sub = self._by_tag.pop(resp.tag, None)
        if sub is None:
            raise RuntimeError(f"{self.name}: B resp with unknown tag")
        sub.done = True
        self._in_flight -= 1
        if self._in_flight == self.tuning.max_in_flight - 1:
            # Freed slot is usable from the next tick (issue ran already).
            self._inflight_ok_since = cycle + 1
        self._buffered_bytes -= sub.payload_bytes
        del self._sub_payload[resp.tag]
        span_id = self._span_by_tag.pop(resp.tag, 0)
        if span_id and self.spans is not None:
            self.spans.axi_end(span_id, cycle)

    def _report_done(self) -> None:
        if not self._requests or not self.done.can_push():
            return
        active = self._requests[0]
        if active.buffered >= active.req.len_bytes and active.all_done():
            self.done.push(True)
            self._requests.popleft()

    def compile_tick(self):
        """Specialised tick: the six phases with their entry guards inlined,
        so an idle phase costs one comparison instead of a method call."""
        request = self.request
        done = self.done
        port_aw = self.port.aw
        port_w = self.port.w
        port_b = self.port.b
        tuning = self.tuning
        accept_req = self._accept_request
        accept_data = self._accept_data
        issue = self._issue_aw
        stream = self._stream_w
        collect = self._collect_b
        report = self._report_done

        def tick(cycle, self=self):
            requests = self._requests
            if len(requests) < 2 and request._pop_count < len(request._items):
                accept_req()
            if requests:
                accept_data(cycle)
            if (
                self._issue_q
                and cycle >= self._next_aw_cycle
                and self._in_flight < tuning.max_in_flight
            ):
                issue(cycle)
            if self._w_stream and (
                len(port_w._items) + len(port_w._staged) < port_w.capacity
            ):
                stream()
            if port_b._pop_count < len(port_b._items):
                collect(cycle)
            if requests and (
                len(done._items) + len(done._staged) < done.capacity
            ):
                report()

        return tick

    def next_event(self, cycle: int) -> float:
        """AW issue is self-scheduled (issue-gap FSM); burst release from the
        staging buffer, W streaming of accepted bursts and the final done
        token are immediate events on internal state; data/request intake
        and B collection are channel traffic.  Channel-blocked terms (AW/W
        pushes, the done token) are gated on space actually being available:
        the pop that frees it wakes the Writer through its wake set.  Burst
        release stays ungated — it only moves bytes between internal queues.
        """
        nxt = NEVER
        if (
            self._issue_q
            and self._in_flight < self.tuning.max_in_flight
            and self.port.aw.can_push()
        ):
            nxt = min(nxt, max(cycle, self._next_aw_cycle))
        if self._w_stream and self.port.w.can_push():
            nxt = min(nxt, cycle)
        if self._requests:
            active = self._requests[0]
            for sub in active.subs:
                if not sub.queued:
                    if len(self._fill_buffer) >= sub.payload_bytes:
                        nxt = min(nxt, cycle)
                    break
            if (
                active.buffered >= active.req.len_bytes
                and active.all_done()
                and self.done.can_push()
            ):
                nxt = min(nxt, cycle)
        return nxt

    def idle(self) -> bool:
        return not self._requests and not self._issue_q and not self._w_stream
