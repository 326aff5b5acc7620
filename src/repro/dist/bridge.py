"""Split-bridge halves: the only components allowed to span a partition cut.

Every inter-SLR edge in an elaborated design is a fixed-latency delay line —
an :class:`repro.noc.axi_node.AxiPipe` on the memory side, and the
SLR-latency command/response hop on the command side.  Splitting such an edge
puts the *pop* side (egress) in the producing partition and the delay deque +
*push* side (ingress) in the consuming partition, so no
:class:`~repro.sim.ChannelQueue` is ever shared between partitions.

The halves replicate the pipe's per-channel semantics exactly:

* egress: ``if chan.can_pop(): forward (cycle + latency, chan.pop())`` — at
  most one item per channel per cycle, unconditional (the stock pipe's
  ingest never exerts backpressure; the delay line is unbounded).
* ingress: ``if head due <= cycle and target.can_push(): push`` — the stock
  pipe's flow-controlled drain.

The egress appends straight into its peer's delay deque and requests a
wake, whether or not the two halves sit in the same partition.  Because
every due cycle is at least one full slice in the future
(``slice_width <= latency``), an item appended into a partition that has
already run the current slice drains exactly as it would have in one
simulator — the bit-identity argument in DESIGN.md.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.sim import NEVER, ChannelQueue, Component


class BridgeEgress(Component):
    """Producer-partition half of a split bridge edge.

    Pops at most one item per source channel per cycle (mirroring
    ``AxiPipe._ingest``) and forwards it — stamped with its maturity cycle —
    into the peer ingress.
    """

    #: Purely reactive: progress requires traffic on a source channel.
    wake_only = True

    _snapshot_exclude = ("_sources", "peer")  # wiring, rebuilt by partitioning

    def __init__(
        self,
        bridge_id: str,
        name: str,
        latency: int,
        sources: Sequence[Tuple[str, ChannelQueue]],
    ) -> None:
        super().__init__(name)
        if latency < 1:
            raise ValueError(
                f"bridge {bridge_id!r}: cut bridges need latency >= 1 "
                "(a zero-latency pipe must stay inside one partition)"
            )
        self.bridge_id = bridge_id
        self.latency = latency
        self._sources = list(sources)
        self.peer: Optional["BridgeIngress"] = None
        self.items_sent = 0

    @property
    def metric_path(self) -> str:
        return "dist/bridge/" + self.bridge_id.replace(":", "/") + "/tx"

    def tick(self, cycle: int) -> None:
        latency = self.latency
        for key, chan in self._sources:
            if chan.can_pop():
                self.items_sent += 1
                self.peer.inject(key, cycle + latency, chan.pop())

    def next_event(self, cycle: int) -> float:
        return NEVER

    def wake_channels(self):
        return [chan for _key, chan in self._sources]


class BridgeIngress(Component):
    """Consumer-partition half of a split bridge edge: the delay line.

    Holds one due-ordered deque per channel key and drains matured heads into
    the target channels under the exact flow-control guard the stock
    ``AxiPipe._drain`` uses.  ``targets`` entries are ``(key, push, chan)``
    where ``push(cycle, item)`` performs the channel push (link pushes take
    the cycle for burst checking; plain channel pushes ignore it) and
    ``chan`` is the channel probed for space.
    """

    _snapshot_exclude = ("_targets", "_in_flight_metrics")  # wiring, rebuilt by partitioning

    def __init__(
        self,
        bridge_id: str,
        name: str,
        targets: Sequence[Tuple[str, Callable[[int, Any], None], ChannelQueue]],
        latency: Optional[int] = None,
        in_flight_metrics: Optional[Dict[str, str]] = None,
        metric_path: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.bridge_id = bridge_id
        self._targets = list(targets)
        self._delay: Dict[str, deque] = {key: deque() for key, _p, _c in self._targets}
        self.latency = latency
        self._in_flight_metrics = dict(in_flight_metrics or {})
        self._metric_path_override = metric_path
        self.items_delivered = 0

    @property
    def metric_path(self) -> str:
        if self._metric_path_override is not None:
            return self._metric_path_override
        return "dist/bridge/" + self.bridge_id.replace(":", "/") + "/rx"

    def register_metrics(self, scope) -> None:
        # A split AxiPipe keeps its stock stable metric surface: the forward
        # ingress binds noc/<pipe>/latency + in_flight_{ar,aw,w}, the reverse
        # ingress in_flight_{r,b} — same keys, same values at every barrier.
        if self.latency is not None:
            scope.bind("latency", lambda: self.latency)
        for metric_name, key in self._in_flight_metrics.items():
            q = self._delay[key]
            scope.bind(metric_name, lambda q=q: len(q))

    def inject(self, key: str, due: int, item: Any) -> None:
        """Deliver one item from the peer egress.

        The wake request covers the case where every delay deque was empty at
        the last hint (``next_event`` returned :data:`NEVER`) — without it
        the compiled scheduler would never look at this component again.
        """
        self._delay[key].append((due, item))
        self.request_wake()

    def tick(self, cycle: int) -> None:
        for key, push, chan in self._targets:
            q = self._delay[key]
            if q and q[0][0] <= cycle and chan.can_push():
                push(cycle, q.popleft()[1])
                self.items_delivered += 1

    def next_event(self, cycle: int) -> float:
        nxt = NEVER
        for q in self._delay.values():
            if q:
                due = q[0][0]
                hint = due if due > cycle else cycle
                if hint < nxt:
                    nxt = hint
        return nxt

    def wake_channels(self):
        return [chan for _key, _push, chan in self._targets]

    def in_flight(self) -> int:
        return sum(len(q) for q in self._delay.values())

    def debug_state(self):
        held = {key: len(q) for key, q in self._delay.items() if q}
        if held:
            return {"in_flight": held}
        return None


class CommandProxy:
    """Root-partition stand-in for a remote core's command adapter.

    Duck-types the slice of :class:`repro.command.router.CoreCommandAdapter`
    the router touches (``system_id``/``core_id``/``cmd_in``/``resp_out``),
    so the router runs unmodified in the root partition while the real
    adapter lives with its core.  A pair of command bridges shuttles RoCC
    instructions/responses between proxy and adapter at the SLR-crossing
    latency.  Channel names use a ``cmdproxy.`` prefix so the merged metric
    dump never collides with the remote adapter's own channels.
    """

    def __init__(self, system_id: int, core_id: int) -> None:
        self.system_id = system_id
        self.core_id = core_id
        name = f"cmdproxy.{system_id}.{core_id}"
        self.name = name
        self.cmd_in: ChannelQueue = ChannelQueue(4, f"{name}.in")
        self.resp_out: ChannelQueue = ChannelQueue(4, f"{name}.out")

    def channels(self):
        return [self.cmd_in, self.resp_out]
