"""Intra-accelerator (core-to-core) communication memories.

``IntraCoreMemoryPortIn`` declares a scratchpad-like memory writeable from
other cores; ``...Out`` declares a write port targeting such a memory in
another system (appendix tables).  The elaborator aliases each Out link's
channel onto the matching In link's channel, so a producer core pushing
``(row, data)`` tuples lands writes in the consumer core's memory, which the
consumer reads through ordinary memory ports.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.memory.scratchpad import Memory
from repro.sim import NEVER, ChannelQueue, Component


class IntraCoreLink:
    """A one-way (row, data) channel between cores."""

    def __init__(self, name: str, depth: int = 4) -> None:
        self.name = name
        self.chan: ChannelQueue[Tuple[int, int]] = ChannelQueue(depth, name)

    def push(self, row: int, data: int) -> None:
        self.chan.push((row, data))

    def can_push(self) -> bool:
        return self.chan.can_push()


class IntraCoreBroadcast(Component):
    """Fans one producer link out to every consumer core's memory.

    Implements ``comm_degree="broadcast"``: an item is forwarded only when
    every sink has space (a physical broadcast bus stalls on any busy
    endpoint).
    """

    _snapshot_exclude = ("input", "sinks")  # wiring, rebuilt by elaboration

    def __init__(self, name: str, sinks: List[IntraCoreLink]) -> None:
        super().__init__(f"bcast.{name}")
        self.input = IntraCoreLink(f"{name}.in")
        self.sinks = sinks
        self.forwarded = 0

    def channels(self):
        return [self.input.chan]

    def tick(self, cycle: int) -> None:
        if self.input.chan.can_pop() and all(s.chan.can_push() for s in self.sinks):
            row, data = self.input.chan.pop()
            for sink in self.sinks:
                sink.chan.push((row, data))
            self.forwarded += 1

    def next_event(self, cycle: int) -> float:
        return NEVER  # purely reactive: forwarding pops the input channel

    def wake_channels(self):
        # Forwarding needs space in every sink link, none of which it owns.
        return [self.input.chan] + [s.chan for s in self.sinks]


class IntraCoreMemory(Component):
    """The receiving-side memory: drains write links into an SRAM.

    The local core reads it through ``mem`` like any other on-chip memory;
    remote cores write through the aliased links at one write per link per
    cycle (matching a physical write port per channel).
    """

    _snapshot_exclude = ("links",)  # wiring, rebuilt by elaboration

    def __init__(
        self,
        name: str,
        data_width_bits: int,
        n_datas: int,
        n_channels: int,
        ports_per_channel: int = 1,
        latency: int = 2,
        read_only_local: bool = False,
    ) -> None:
        super().__init__(f"intramem.{name}")
        self.links: List[IntraCoreLink] = [
            IntraCoreLink(f"{name}.in{i}") for i in range(n_channels)
        ]
        self.mem = Memory(
            latency,
            data_width_bits,
            n_datas,
            n_read_ports=max(n_channels * ports_per_channel, 1),
            n_write_ports=n_channels,
            name=f"{name}.mem",
        )
        self.read_only_local = read_only_local
        self.writes_applied = 0
        # The local core reads ``mem`` directly (no channel crossing), which
        # the wake sets cannot see; the access hook re-wakes this component
        # so the read pipeline keeps getting clocked.
        self.mem.on_activity = self.request_wake

    def channels(self):
        return [link.chan for link in self.links]

    def tick(self, cycle: int) -> None:
        for i, link in enumerate(self.links):
            if link.chan.can_pop():
                row, data = link.chan.pop()
                self.mem.write(i, row, data)
                self.writes_applied += 1
        self.mem.clock()

    def next_event(self, cycle: int) -> float:
        """``mem.clock`` only changes observable state while a read is in the
        pipeline or parked at the output; otherwise writes arrive as channel
        traffic and the tick is a no-op."""
        if any(e is not None for pipe in self.mem._pipes for e in pipe) or any(
            o is not None for o in self.mem._out
        ):
            return cycle
        return NEVER
