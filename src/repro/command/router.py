"""Command/response routing fabric and the per-core command adapter.

The MMIO frontend turns host register writes into RoCC instructions; the
router delivers them to the addressed (system, core) with an SLR-aware
latency; the per-core adapter reassembles multi-chunk custom commands,
presents decoded commands on the core's ``BeethovenIO`` queues and packs core
responses back into RoCC responses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.command.packing import CommandSpec, ResponseSpec
from repro.command.rocc import RoccInstruction, RoccResponse
from repro.sim import NEVER, ChannelQueue, Component, SimulationError


class BeethovenIO:
    """One named command/response interface of a core (paper Figure 2).

    The core pops decoded commands (dicts of field values) from ``req`` and
    pushes response dicts into ``resp``.
    """

    def __init__(
        self,
        command: CommandSpec,
        response: ResponseSpec,
        owner: str = "",
    ) -> None:
        self.command_spec = command
        self.response_spec = response
        # The owner prefix keeps channel (and metric) names unique per core;
        # without it every core's "io.<cmd>.req" would collide in the registry.
        stem = f"io.{owner}.{command.name}" if owner else f"io.{command.name}"
        self.req: ChannelQueue[dict] = ChannelQueue(2, f"{stem}.req")
        self.resp: ChannelQueue[dict] = ChannelQueue(2, f"{stem}.resp")


class CoreCommandAdapter(Component):
    """Command unpacker + response packer sitting next to one core."""

    _state = ("_chunks", "_pending_rd", "commands_delivered", "responses_packed")

    def __init__(
        self,
        system_id: int,
        core_id: int,
        ios: List[BeethovenIO],
        addr_bits: int,
    ) -> None:
        super().__init__(f"cmdadapt.{system_id}.{core_id}")
        self.system_id = system_id
        self.core_id = core_id
        self.ios = ios
        self.addr_bits = addr_bits
        self.cmd_in: ChannelQueue[RoccInstruction] = ChannelQueue(4, f"{self.name}.in")
        self.resp_out: ChannelQueue[RoccResponse] = ChannelQueue(4, f"{self.name}.out")
        self._chunks: Dict[int, List[Tuple[int, int]]] = {}
        self._pending_rd: List[Deque[int]] = [deque() for _ in ios]
        self.commands_delivered = 0
        self.responses_packed = 0
        # Optional CommandSpanTracker: delivery/response are the lifecycle
        # hooks that bracket a command's "execute" span.
        self.spans = None

    @property
    def metric_path(self) -> str:
        return "cmd/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("commands_delivered", lambda: self.commands_delivered)
        scope.bind("responses_packed", lambda: self.responses_packed)

    def channels(self):
        chans = [self.cmd_in, self.resp_out]
        for io in self.ios:
            chans += [io.req, io.resp]
        return chans

    def tick(self, cycle: int) -> None:
        self._unpack(cycle)
        self._pack_responses(cycle)

    def wake_edges(self):
        # Commands and core responses arriving wake the adapter, as does
        # room opening in a core's command queue; its own pops and pushes do
        # not, so next_event covers the backlog.  Room opening in
        # ``resp_out`` does not either: the router drains it one response
        # per tick, so a response stalled there is polled for (next_event).
        ios = self.ios
        return (
            [self.cmd_in] + [io.resp for io in ios],
            [io.req for io in ios],
        )

    def next_event(self, cycle: int) -> float:
        """``cycle`` while a tick would still act with no further edge — a
        visible chunk that is not a final one stalled on a full ``io.req`` —
        or may act within a few cycles: a visible response, whose room in
        ``resp_out`` no edge announces.  Else :data:`NEVER`: one chunk and
        one response move per tick."""
        cmd_in = self.cmd_in
        if cmd_in.can_pop():
            io_idx = cmd_in.peek().funct7
            if io_idx >= len(self.ios):
                return cycle  # the tick raises
            io = self.ios[io_idx]
            if io.req.can_push() or len(self._chunks.get(io_idx, ())) + 1 < (
                io.command_spec.n_chunks(self.addr_bits)
            ):
                return cycle
        for idx, io in enumerate(self.ios):
            if io.resp.can_pop() and self._pending_rd[idx]:
                return cycle
        return NEVER

    def _unpack(self, cycle: int) -> None:
        if not self.cmd_in.can_pop():
            return
        inst = self.cmd_in.peek()
        io_idx = inst.funct7
        if io_idx >= len(self.ios):
            raise SimulationError(
                f"{self.name}: command for unknown IO index {io_idx}"
            )
        io = self.ios[io_idx]
        expected = io.command_spec.n_chunks(self.addr_bits)
        got = self._chunks.setdefault(io_idx, [])
        if len(got) + 1 < expected:
            self.cmd_in.pop()
            got.append((inst.rs1, inst.rs2))
            return
        # Final chunk: only consume when the core can accept the command.
        if not io.req.can_push():
            return
        self.cmd_in.pop()
        got.append((inst.rs1, inst.rs2))
        values = io.command_spec.unpack(got, self.addr_bits)
        self._chunks[io_idx] = []
        io.req.push(values)
        self.commands_delivered += 1
        if self.spans is not None:
            self.spans.delivered(cycle, (self.system_id, self.core_id))
        if inst.xd:
            self._pending_rd[io_idx].append(inst.rd)

    def _pack_responses(self, cycle: int) -> None:
        if not self.resp_out.can_push():
            return
        for idx, io in enumerate(self.ios):
            if io.resp.can_pop() and self._pending_rd[idx]:
                values = io.resp.pop()
                rd = self._pending_rd[idx].popleft()
                data = io.response_spec.pack(values) if io.response_spec.fields else 0
                self.resp_out.push(
                    RoccResponse(self.system_id, self.core_id, rd, data)
                )
                self.responses_packed += 1
                if self.spans is not None:
                    self.spans.response_sent(
                        cycle, (self.system_id, self.core_id)
                    )
                return


@dataclass
class _RouteEntry:
    adapter: CoreCommandAdapter
    latency: int


class CommandRouter(Component):
    """Routes RoCC instructions to core adapters and responses back.

    Beethoven builds SLR-aware command networks; we model the network's
    *effect* — per-destination pipeline latency proportional to SLR distance
    plus tree depth — while the structural cost is priced by the FPGA
    resource model.
    """

    _state = ("_cmd_delay", "_resp_delay", "_resp_rr", "commands_routed", "responses_routed")

    def __init__(self) -> None:
        super().__init__("cmdrouter")
        self.cmd_in: ChannelQueue[RoccInstruction] = ChannelQueue(4, "cmdrouter.cmd")
        self.resp_out: ChannelQueue[RoccResponse] = ChannelQueue(4, "cmdrouter.resp")
        self._routes: Dict[Tuple[int, int], _RouteEntry] = {}
        self._route_list: Tuple[_RouteEntry, ...] = ()  # attach order
        self._cmd_delay: Deque[Tuple[int, RoccInstruction]] = deque()
        self._resp_delay: Deque[Tuple[int, RoccResponse]] = deque()
        self._resp_rr = 0
        self.commands_routed = 0
        self.responses_routed = 0

    @property
    def metric_path(self) -> str:
        return "cmd/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("commands_routed", lambda: self.commands_routed)
        scope.bind("responses_routed", lambda: self.responses_routed)
        scope.bind("cmd_delay_depth", lambda: len(self._cmd_delay))
        scope.bind("resp_delay_depth", lambda: len(self._resp_delay))

    def attach(self, adapter: CoreCommandAdapter, latency: int = 2) -> None:
        key = (adapter.system_id, adapter.core_id)
        if key in self._routes:
            raise ValueError(f"duplicate route for {key}")
        self._routes[key] = _RouteEntry(adapter, latency)
        self._route_list = tuple(self._routes.values())

    def tick(self, cycle: int) -> None:
        # Ingest one command per cycle into the delay line.
        if self.cmd_in.can_pop():
            inst = self.cmd_in.peek()
            entry = self._routes.get((inst.system_id, inst.core_id))
            if entry is None:
                raise SimulationError(
                    f"{self.name}: command for unknown core "
                    f"({inst.system_id}, {inst.core_id})"
                )
            self.cmd_in.pop()
            self._cmd_delay.append((cycle + entry.latency, inst))
        # Deliver matured commands.
        if self._cmd_delay:
            ready_at, inst = self._cmd_delay[0]
            entry = self._routes[(inst.system_id, inst.core_id)]
            if ready_at <= cycle and entry.adapter.cmd_in.can_push():
                self._cmd_delay.popleft()
                entry.adapter.cmd_in.push(inst)
                self.commands_routed += 1
        # Collect one response per cycle, round-robin over cores.
        adapters = self._route_list
        n = len(adapters)
        for k in range(n):
            entry = adapters[(self._resp_rr + k) % n]
            if entry.adapter.resp_out.can_pop():
                resp = entry.adapter.resp_out.pop()
                self._resp_delay.append((cycle + entry.latency, resp))
                self._resp_rr = (self._resp_rr + k + 1) % n
                break
        if self._resp_delay and self._resp_delay[0][0] <= cycle and self.resp_out.can_push():
            self.resp_out.push(self._resp_delay.popleft()[1])
            self.responses_routed += 1

    def next_event(self, cycle: int) -> float:
        """Sleep until the head of either delay line matures, unless a
        backlog remains: ingest and response collection move one item per
        tick and the router's own pops do not re-wake it (``wake_edges``),
        so a still-visible command or response names the next cycle."""
        if self.cmd_in.can_pop():
            return cycle
        nxt = NEVER
        if self._cmd_delay:
            nxt = min(nxt, max(cycle, self._cmd_delay[0][0]))
        if self._resp_delay:
            nxt = min(nxt, max(cycle, self._resp_delay[0][0]))
        if nxt > cycle:
            for entry in self._route_list:
                if entry.adapter.resp_out.can_pop():
                    return cycle
        return nxt

    def wake_edges(self):
        # Commands from the frontend and responses from the adapters wake
        # the router.  No pop does: a matured delay-line head blocked on a
        # full adapter ``cmd_in`` or ``resp_out`` keeps the hint at "every
        # cycle" until the consumer makes room.  Nobody waits on the pops
        # the router makes either: it drains ``cmd_in`` and every adapter's
        # ``resp_out`` one item per tick without back-pressure (its delay
        # lines are unbounded), so a producer stalled on one of them polls
        # (MmioFrontend and CoreCommandAdapter ``next_event``).
        return (
            [self.cmd_in] + [e.adapter.resp_out for e in self._route_list],
            [],
        )


class MmioFrontend(Component):
    """The AXI-MMIO command/response system (paper Figure 1a).

    The host (runtime model) writes 32-bit words into the command FIFO and
    polls the response FIFO; the frontend reassembles RoCC instructions and
    feeds the router.  ``mmio_word_cycles`` models the cost of one MMIO
    register access as seen from the fabric side.
    """

    # Optional fault injector (repro.faults): may eat whole responses off the
    # MMIO path, modelling a lost interrupt/register read on real hardware.
    _fault = None

    _state = ("_fault", "_partial", "commands_forwarded", "responses_forwarded")

    def __init__(self, router: CommandRouter) -> None:
        super().__init__("mmio")
        self.router = router
        self.cmd_words: ChannelQueue[int] = ChannelQueue(16, "mmio.cmdw")
        self.resp_words: ChannelQueue[int] = ChannelQueue(16, "mmio.respw")
        self._partial: List[int] = []
        self.commands_forwarded = 0
        self.responses_forwarded = 0

    @property
    def metric_path(self) -> str:
        return "cmd/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("commands_forwarded", lambda: self.commands_forwarded)
        scope.bind("responses_forwarded", lambda: self.responses_forwarded)

    def tick(self, cycle: int) -> None:
        if self.cmd_words.can_pop() and self.router.cmd_in.can_push():
            self._partial.append(self.cmd_words.pop())
            if len(self._partial) == 6:
                self.router.cmd_in.push(RoccInstruction.decode_words(self._partial))
                self._partial.clear()
                self.commands_forwarded += 1
        if self.router.resp_out.can_pop() and self.resp_words.can_push(4):
            resp = self.router.resp_out.pop()
            hook = self._fault
            if hook is not None and hook.drop_response(cycle, resp):
                return  # response lost; the server's watchdog must recover
            for word in resp.encode_words():
                self.resp_words.push(word)
            self.responses_forwarded += 1

    def next_event(self, cycle: int) -> float:
        """``cycle`` while a tick would still act with no further edge (a
        response is still visible and ``resp_words`` has room) or may act
        within a few cycles (a word is still visible: the router drains a
        full ``cmd_in`` one instruction per tick, and no edge announces the
        room), else :data:`NEVER`: one word and one response move per tick,
        and the frontend's own pops and pushes do not re-wake it
        (``wake_edges``)."""
        if self.cmd_words.can_pop() or (
            self.router.resp_out.can_pop() and self.resp_words.can_push(4)
        ):
            return cycle
        return NEVER

    def wake_edges(self):
        # Bridges its own word FIFOs to the router's instruction queues:
        # woken by what arrives in the two it drains and by room opening in
        # ``resp_words``, which the server may leave full for thousands of
        # cycles.  Room opening in ``router.cmd_in`` wakes nobody: the router
        # frees it within a cycle or two, so a stalled word polls instead.
        router = self.router
        return (
            [self.cmd_words, router.resp_out],
            [self.resp_words],
        )
