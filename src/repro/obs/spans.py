"""End-to-end host-command span tracking.

A host command's lifetime crosses four models: the :class:`RuntimeServer`
(enqueue, lock acquisition, MMIO word dispatch), the command router/adapter
(delivery to the core), the core itself (execution), and the memory system
(AXI bursts issued on the command's behalf).  None of those models carries a
command ID on the wire — the RoCC encoding has no spare bits and we refuse to
widen it just for tracing — so the tracker reconstructs identity from the
in-order delivery guarantees the fabric already provides:

* per ``(system_id, core_id)`` key, commands are dispatched, delivered, and
  answered in FIFO order (the router's delay lines and the adapter's chunk
  reassembly preserve order per destination);
* therefore matching "the next delivery for key K" with "the oldest
  dispatched-but-undelivered command for key K" is exact, and likewise for
  responses.

The tracker keeps one FIFO per key between each pair of lifecycle stages and
emits :class:`~repro.sim.trace.Span` records through the shared tracer:

``cmd:<label>``  (root, runtime-server track)
  └─ ``dispatch``  lock acquisition + MMIO word serialisation
  └─ ``execute``   delivery at the core adapter -> response packed
       (AXI bursts issued while a command executes are parented to the root
       span via :meth:`current_command`)

A build with span tracing off (``Observability.off()``) has no tracker at
all, and its models test for ``None``; span id 0 stands for "no span", and
every method taking a span id ignores it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.sim.trace import Tracer

Key = Tuple[int, int]  # (system_id, core_id)


class CommandSpanTracker:
    """Assigns span IDs to host commands and stitches their lifecycle."""

    _state = ("_tracks", "_awaiting_delivery", "_executing", "_dispatch_child",
              "_exec_child", "commands_tracked")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._tracks: Dict[Key, str] = {}
        # sid queues between lifecycle stages, one FIFO per core key.
        self._awaiting_delivery: Dict[Key, Deque[int]] = {}
        self._executing: Dict[Key, Deque[int]] = {}
        # root sid -> currently open child span.
        self._dispatch_child: Dict[int, int] = {}
        self._exec_child: Dict[int, int] = {}
        self.commands_tracked = 0

    # ------------------------------------------------------------- topology
    def set_track(self, key: Key, track: str) -> None:
        """Name the display track for a core (``"Memcpy/core0"``)."""
        self._tracks[key] = track

    def track_for(self, key: Key) -> str:
        track = self._tracks.get(key)
        if track is None:
            track = f"sys{key[0]}/core{key[1]}"
        return track

    # ------------------------------------------------------------ lifecycle
    def command_submitted(
        self, cycle: int, key: Key, client: int = 0, label: str = "cmd",
        tenant: str = "",
    ) -> int:
        """Host enqueued a command at the runtime server; opens the root span.

        ``tenant`` (when the serving layer set one) is recorded in the span
        args only when non-empty, so untagged traces keep their exact
        pre-serving shape.
        """
        self.commands_tracked += 1
        args = {"system_id": key[0], "core_id": key[1], "client": client}
        if tenant:
            args["tenant"] = tenant
        return self.tracer.begin_span(
            cycle,
            self.track_for(key),
            f"cmd:{label}",
            **args,
        )

    def dispatch_begin(self, cycle: int, span_id: int) -> None:
        """Server won the lock and starts serialising MMIO words."""
        if not span_id:
            return
        self._dispatch_child[span_id] = self.tracer.begin_span(
            cycle, self.track_for_span(span_id), "dispatch", parent=span_id
        )

    def dispatch_end(self, cycle: int, span_id: int, key: Key) -> None:
        """Last MMIO word pushed; the command is in flight toward the core."""
        if not span_id:
            return
        child = self._dispatch_child.pop(span_id, 0)
        if child:
            self.tracer.end_span(child, cycle)
        self._awaiting_delivery.setdefault(key, deque()).append(span_id)

    def delivered(self, cycle: int, key: Key) -> Optional[int]:
        """The core adapter handed the decoded command to the core."""
        pending = self._awaiting_delivery.get(key)
        if not pending:
            return None
        span_id = pending.popleft()
        self._exec_child[span_id] = self.tracer.begin_span(
            cycle, self.track_for(key), "execute", parent=span_id
        )
        self._executing.setdefault(key, deque()).append(span_id)
        return span_id

    def response_sent(self, cycle: int, key: Key) -> Optional[int]:
        """The core's response was packed; execution is over."""
        executing = self._executing.get(key)
        if not executing:
            return None
        span_id = executing.popleft()
        child = self._exec_child.pop(span_id, 0)
        if child:
            self.tracer.end_span(child, cycle)
        return span_id

    def command_completed(self, cycle: int, span_id: int) -> None:
        """The runtime server polled the response; closes the root span."""
        if span_id:
            self.tracer.end_span(span_id, cycle)

    def current_command(self, key: Key) -> Optional[int]:
        """Root span of the oldest command currently executing on ``key``.

        Memory ports use this to attribute AXI bursts: with in-order
        per-core execution the oldest executing command is the one driving
        the port.
        """
        executing = self._executing.get(key)
        return executing[0] if executing else None

    # ------------------------------------------------------------ AXI bursts
    def axi_begin(
        self,
        cycle: int,
        key: Optional[Key],
        owner: str,
        kind: str,
        addr: int,
        beats: int,
        tag: int,
    ) -> int:
        """Open an AXI burst span parented to the executing command (if any);
        ``tag`` is the request's transaction tag, which the DDR monitor
        records too."""
        parent = self.current_command(key) if key is not None else None
        return self.tracer.begin_span(
            cycle,
            owner.replace(".", "/"),
            f"axi:{kind}",
            parent=parent,
            addr=addr,
            beats=beats,
            tag=tag,
        )

    def axi_end(self, span_id: int, cycle: int, **args: Any) -> None:
        if span_id:
            self.tracer.end_span(span_id, cycle, **args)

    # -------------------------------------------------------------- helpers
    def track_for_span(self, span_id: int) -> str:
        span = self.tracer._open_spans.get(span_id)
        return span.track if span is not None else "runtime"

    def register_metrics(self, scope) -> None:
        scope.bind("commands_tracked", lambda: self.commands_tracked)
