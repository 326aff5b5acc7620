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
from typing import Deque, Optional

from repro.axi.types import AWReq, AxiParams, WBeat
from repro.memory.master import BurstMaster, MasterTuning
from repro.memory.types import WriteRequest, split_into_bursts
from repro.sim import NEVER, ChannelQueue


@dataclass
class _WrSubTxn:
    addr: int
    beats: int
    payload_bytes: int
    axi_id: int = 0
    tag: int = -1
    queued: bool = False  # payload carved off and waiting for / past AW
    payload: bytes = b""  # the staged burst, from release until its B
    beats_sent: int = 0
    done: bool = False


@dataclass
class _ActiveRequest:
    req: WriteRequest
    subs: list = field(default_factory=list)
    buffered: int = 0  # payload bytes received from the core

    def all_done(self) -> bool:
        return all(s.done for s in self.subs)


class Writer(BurstMaster):
    """Streams core data to memory; pops ``done`` when the request landed.

    No buffer gates the AW path, so the stall split is the base's: issue
    gap, in-flight window, downstream backpressure."""

    _addr_req = AWReq
    _span_kind = "write"

    _state = ("_requests", "_fill_buffer", "_issue_q", "_w_stream", "_buffered_bytes",
              "bytes_accepted")

    def __init__(
        self,
        name: str,
        data_bytes: int,
        axi_params: AxiParams,
        tuning: Optional[MasterTuning] = None,
    ) -> None:
        super().__init__(f"writer.{name}", data_bytes, axi_params, tuning)
        self.done: ChannelQueue[bool] = ChannelQueue(2, f"{self.name}.done")

        self._requests: Deque[_ActiveRequest] = deque()
        self._fill_buffer = bytearray()  # staging for the request being fed
        self._issue_q: Deque[_WrSubTxn] = deque()  # fully-buffered, awaiting AW
        self._w_stream: Deque[_WrSubTxn] = deque()  # AW sent, W beats owed
        self._buffered_bytes = 0
        self.bytes_accepted = 0

    def channels(self):
        return [self.request, self.data, self.done] + self.port.channels()

    def register_metrics(self, scope) -> None:
        scope.bind("bytes_accepted", lambda: self.bytes_accepted)
        scope.bind("buffered_bytes", lambda: self._buffered_bytes)
        super().register_metrics(scope)

    # -- behaviour ----------------------------------------------------------
    # Each phase runs only behind the entry guard :meth:`compile_tick` tests
    # for it (room for a request, an active request, an issuable head, W
    # room, a visible B response, done room), and checks just the rest of
    # its condition.
    def _accept_request(self) -> None:
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
                sub.payload = bytes(self._fill_buffer[: sub.payload_bytes])
                del self._fill_buffer[: sub.payload_bytes]
                sub.queued = True
                if not self._issue_q:
                    # Issue runs after burst release in the same tick, so the
                    # new head is eligible for issue from this very cycle.
                    self._head_since = cycle
                self._issue_q.append(sub)
            break  # only the front un-queued burst can complete

    def _issue_aw(self, cycle: int) -> None:
        if not self.port.aw.can_push():
            return
        sub = self._issue_q.popleft()
        self._issue(cycle, sub, self.port.aw)
        self._w_stream.append(sub)

    def _stream_w(self) -> None:
        sub = self._w_stream[0]
        beat_bytes = self.port.params.beat_bytes
        start = sub.beats_sent * beat_bytes
        chunk = sub.payload[start : start + beat_bytes]
        strb = None
        if len(chunk) < beat_bytes:
            strb = b"\x01" * len(chunk) + b"\x00" * (beat_bytes - len(chunk))
            chunk = chunk + bytes(beat_bytes - len(chunk))
        last = sub.beats_sent == sub.beats - 1
        self.port.w.push(WBeat(chunk, last, strb))
        sub.beats_sent += 1
        if last:
            self._w_stream.popleft()

    def _collect_b(self, cycle: int) -> None:
        sub = self._retire(cycle, self.port.b.pop()[1].tag)
        sub.done = True
        sub.payload = b""
        self._buffered_bytes -= sub.payload_bytes

    def _report_done(self) -> None:
        active = self._requests[0]
        if active.buffered >= active.req.len_bytes and active.all_done():
            self.done.push(True)
            self._requests.popleft()

    def compile_tick(self):
        """The tick: accept a request, take a data chunk and release staged
        bursts, issue an AW, stream a W beat, collect a B response, then
        report a finished request — each phase behind its entry guard,
        inlined so an idle phase costs one comparison instead of a method
        call."""
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
                and cycle >= self._next_issue_cycle
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
            nxt = min(nxt, max(cycle, self._next_issue_cycle))
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
