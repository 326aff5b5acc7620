"""The direction-independent half of a Beethoven AXI master.

A :class:`~repro.memory.reader.Reader` and a
:class:`~repro.memory.writer.Writer` share one mechanism: cut a transfer
into bursts, keep up to ``max_in_flight`` of them outstanding, and rotate
them over ``n_axi_ids`` AXI IDs (transaction-level parallelism) so the
memory controller may finish them out of order.  :class:`BurstMaster` owns
that mechanism once — the port and its width check, the core-facing
``request``/``data`` channels, ID rotation, the issue bookkeeping (tag
table, in-flight window, issue-gap deadline), retiring a burst, and the
per-burst stall split.  Each direction keeps its own policy: the Reader its
prefetch buffer and delivery, the Writer its staging, W streaming and
``done``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.axi.types import AxiParams, AxiPort
from repro.noc.axi_node import bits_for
from repro.sim import ChannelQueue, Component


@dataclass
class MasterTuning:
    """Platform-tunable Reader/Writer internals (paper: 'Reader/Writer
    internal performance knobs').  ``n_axi_ids = 1`` disables TLP."""

    max_txn_beats: int = 64
    n_axi_ids: int = 4
    max_in_flight: int = 4
    buffer_bytes: int = 4 * 4096
    issue_gap: int = 1  # min cycles between address issues (request FSM cost)

    @property
    def id_bits(self) -> int:
        return bits_for(self.n_axi_ids)


class BurstMaster(Component):
    """Burst issue and retirement for one AXI master port.

    A subclass names its address request type (``_addr_req``: ``ARReq`` or
    ``AWReq``) and its span kind, decides *when* its head burst may issue,
    and calls :meth:`_issue` and :meth:`_retire`; it may add gates to the
    stall split by overriding :meth:`_gate_stall`.
    """

    _addr_req: type
    _span_kind: str

    _state = ("_by_tag", "_span_by_tag", "_in_flight", "_next_id", "_next_issue_cycle",
              "_head_since", "_inflight_ok_since", "requests_accepted", "bursts_issued",
              "stall_gap_cycles", "stall_inflight_cycles", "stall_backpressure_cycles")

    def __init__(
        self,
        name: str,
        data_bytes: int,
        axi_params: AxiParams,
        tuning: Optional[MasterTuning] = None,
    ) -> None:
        super().__init__(name)
        self.data_bytes = data_bytes
        self.tuning = tuning or MasterTuning()
        beat = axi_params.beat_bytes
        if data_bytes < 1 or data_bytes > beat or beat % data_bytes:
            raise ValueError(
                f"{name}: port width {data_bytes} must divide the bus width {beat}"
            )
        self.port = AxiPort(
            AxiParams(
                beat,
                max(self.tuning.id_bits, 1),
                axi_params.addr_bits,
                axi_params.max_burst_beats,
            ),
            f"{name}.axi",
        )
        self.request: ChannelQueue = ChannelQueue(2, f"{name}.req")
        self.data: ChannelQueue[bytes] = ChannelQueue(2, f"{name}.data")

        self._by_tag: Dict[int, object] = {}  # tag -> burst, issued until retired
        self._in_flight = 0
        self._next_id = 0
        self._next_issue_cycle = 0
        self.requests_accepted = 0
        self.bursts_issued = 0
        # Contention accounting (repro.obs.attribution): per-burst stall
        # attribution, computed retroactively at issue time from stamps that
        # are only updated by genuinely mutating ticks (so the counters stay
        # bit-identical under both scheduling modes, including compiled
        # jumps over quiescent windows).  ``_head_since`` is the cycle the
        # current head burst became eligible for issue; ``_inflight_ok_since``
        # is the cycle the in-flight window last stopped being binding.
        self._head_since = 0
        self._inflight_ok_since = 0
        self.stall_gap_cycles = 0
        self.stall_inflight_cycles = 0
        self.stall_backpressure_cycles = 0
        # Observability: set by the elaborator so AXI bursts are attributed
        # to the host command currently executing on this master's core.
        self.spans = None
        self.span_key = None
        self._span_by_tag: Dict[int, int] = {}

    def channels(self):
        return [self.request, self.data] + self.port.channels()

    def register_metrics(self, scope) -> None:
        scope.bind("requests_accepted", lambda: self.requests_accepted)
        scope.bind("bursts_issued", lambda: self.bursts_issued)
        scope.bind("in_flight", lambda: self._in_flight)
        scope.bind("stall_gap_cycles", lambda: self.stall_gap_cycles)
        scope.bind("stall_inflight_cycles", lambda: self.stall_inflight_cycles)
        scope.bind(
            "stall_backpressure_cycles", lambda: self.stall_backpressure_cycles
        )

    # -- per burst -------------------------------------------------------------
    def _attribute_stall(self, cycle: int) -> None:
        """Book the cycles the issued head burst waited, split by the first
        binding reason in guard order: issue-gap FSM, in-flight window, the
        direction's own gates (:meth:`_gate_stall`), then downstream
        address-channel backpressure."""
        t = self._head_since
        if t >= cycle:
            return
        gap_until = self._next_issue_cycle  # pre-issue value: the old gap deadline
        if gap_until > t:
            adv = gap_until if gap_until < cycle else cycle
            self.stall_gap_cycles += adv - t
            t = adv
        ok = self._inflight_ok_since
        if ok > t:
            adv = ok if ok < cycle else cycle
            self.stall_inflight_cycles += adv - t
            t = adv
        t = self._gate_stall(t, cycle)
        if cycle > t:
            self.stall_backpressure_cycles += cycle - t

    def _gate_stall(self, t: int, cycle: int) -> int:
        """Book the wait from ``t`` owed to gates checked after the window;
        returns the cycle booked up to.  The base master has none."""
        return t

    def _issue(self, cycle: int, sub, chan: ChannelQueue) -> None:
        """Push ``sub``'s address on ``chan`` under the next AXI ID and book
        the issue.  The caller has checked that the head may issue and that
        ``chan`` has room."""
        self._attribute_stall(cycle)
        sub.axi_id = axi_id = self._next_id
        self._next_id = (axi_id + 1) % max(self.tuning.n_axi_ids, 1)
        req = self._addr_req(axi_id=axi_id, addr=sub.addr, length=sub.beats)
        sub.tag = tag = req.tag
        chan.push(req)
        self._by_tag[tag] = sub
        self._in_flight += 1
        self.bursts_issued += 1
        self._next_issue_cycle = cycle + self.tuning.issue_gap
        # The next head burst (if any) cannot issue before the next tick.
        self._head_since = cycle + 1
        if self.spans is not None:
            self._span_by_tag[tag] = self.spans.axi_begin(
                cycle, self.span_key, self.name, self._span_kind, sub.addr, sub.beats, tag
            )

    def _retire(self, cycle: int, tag: int):
        """Close the burst ``tag`` on its last response: free its in-flight
        slot and end its span; returns the burst."""
        sub = self._by_tag.pop(tag, None)
        if sub is None:
            raise RuntimeError(f"{self.name}: response with unknown tag {tag}")
        self._in_flight -= 1
        if self._in_flight == self.tuning.max_in_flight - 1:
            # Freed slot is usable from the next tick (issue ran already).
            self._inflight_ok_since = cycle + 1
        span_id = self._span_by_tag.pop(tag, 0)
        if span_id and self.spans is not None:
            self.spans.axi_end(span_id, cycle)
        return sub
