"""AXI interconnect nodes: arbitration/buffer nodes and pipeline stages.

Beethoven's generated memory network is a tree whose internal nodes are
buffers (Section II-B, Multi-Die Designs).  :class:`AxiBufferNode` is one such
node: it multiplexes N upstream masters onto one downstream port with
round-robin arbitration and ID remapping (upstream index bits are appended
above the master's own ID bits, the standard crossbar technique), and routes
responses back by stripping those bits.  :class:`AxiPipe` is a fixed-latency
register slice used for expensive links such as SLR crossings.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.axi.types import ARReq, AWReq, AxiPort
from repro.noc.links import as_link
from repro.sim import NEVER, Component, SimulationError


def bits_for(n: int) -> int:
    """Bits needed to number ``n`` distinct upstreams (0 for a single one)."""
    if n <= 1:
        return 0
    return (n - 1).bit_length()


class AxiBufferNode(Component):
    """N-to-1 AXI mux with per-channel round-robin arbitration.

    ``child_id_bits`` is the ID width upstream masters use; remapped IDs are
    ``(upstream_index << child_id_bits) | upstream_id``.  The downstream port's
    parameterisation must have room for the extra bits — the elaborator checks
    this when it sizes the tree.
    """

    # Optional fault injector (repro.faults): filters R beats (corrupt/drop)
    # and B responses (drop) at this hop.  Class attribute so existing
    # constructions need no changes; a compiled FaultPlan installs instances.
    _fault = None

    _snapshot_exclude = ("down", "upstreams")  # wiring, rebuilt by elaboration

    def __init__(
        self,
        upstreams: List[AxiPort],
        downstream,
        child_id_bits: int,
        name: str = "axinode",
    ) -> None:
        super().__init__(name)
        if not upstreams:
            raise ValueError("buffer node needs at least one upstream")
        self.upstreams = upstreams
        self.down = as_link(downstream)
        self.child_id_bits = child_id_bits
        self.index_bits = bits_for(len(upstreams))
        total = child_id_bits + self.index_bits
        if total > self.down.port.params.id_bits:
            raise SimulationError(
                f"{name}: needs {total} ID bits downstream, "
                f"only {self.down.port.params.id_bits} available"
            )
        self._ar_rr = 0
        self._aw_rr = 0
        # (upstream_index, beats_remaining) in downstream AW order: AXI4 write
        # data may not interleave, so W is locked to this order.
        self._w_order: Deque[Tuple[int, int]] = deque()
        # Per-upstream count of outstanding W bursts already granted, so we
        # never forward an AW whose W data could deadlock the lock queue.
        self.forwarded = {"ar": 0, "aw": 0, "w": 0, "r": 0, "b": 0}
        # Contention accounting (repro.obs.attribution): cycles each channel
        # spent with an item ready to forward but the receiving side full.
        # ``_stall_since[ch] >= 0`` marks an open stall window; the window is
        # closed (and accrued) at the first tick the blocked side has room
        # again.  Stall windows only open while the blocking channels are
        # non-empty, so every open/close tick is executed under both
        # scheduling modes and the counters are mode-identical.
        self.stall_cycles = {"ar": 0, "aw": 0, "w": 0, "r": 0, "b": 0}
        self._stall_since = {"ar": -1, "aw": -1, "w": -1, "r": -1, "b": -1}

    @property
    def metric_path(self) -> str:
        return "noc/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        for ch in ("ar", "aw", "w", "r", "b"):
            scope.bind(f"forwarded_{ch}", lambda ch=ch: self.forwarded[ch])
            scope.bind(f"stall_{ch}_cycles", lambda ch=ch: self.stall_cycles[ch])
        scope.bind("upstreams", lambda: len(self.upstreams))

    # -- ID remapping -------------------------------------------------------
    def _remap(self, up_idx: int, axi_id: int) -> int:
        return (up_idx << self.child_id_bits) | axi_id

    def _unmap(self, axi_id: int) -> Tuple[int, int]:
        return axi_id >> self.child_id_bits, axi_id & ((1 << self.child_id_bits) - 1)

    # -- tick ---------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._forward_ar(cycle)
        self._forward_aw(cycle)
        self._forward_w(cycle)
        self._route_r(cycle)
        self._route_b(cycle)

    def _forward_ar(self, cycle: int) -> None:
        if not self.down.port.ar.can_push():
            if self._stall_since["ar"] < 0 and any(
                up.ar.can_pop() for up in self.upstreams
            ):
                self._stall_since["ar"] = cycle
            return
        if self._stall_since["ar"] >= 0:
            self.stall_cycles["ar"] += cycle - self._stall_since["ar"]
            self._stall_since["ar"] = -1
        n = len(self.upstreams)
        for k in range(n):
            idx = (self._ar_rr + k) % n
            up = self.upstreams[idx]
            if up.ar.can_pop():
                req = up.ar.pop()
                self.down.push_ar(
                    cycle,
                    ARReq(self._remap(idx, req.axi_id), req.addr, req.length, req.tag),
                )
                self._ar_rr = (idx + 1) % n
                self.forwarded["ar"] += 1
                return

    def _forward_aw(self, cycle: int) -> None:
        if not self.down.port.aw.can_push():
            if self._stall_since["aw"] < 0 and any(
                up.aw.can_pop() for up in self.upstreams
            ):
                self._stall_since["aw"] = cycle
            return
        if self._stall_since["aw"] >= 0:
            self.stall_cycles["aw"] += cycle - self._stall_since["aw"]
            self._stall_since["aw"] = -1
        n = len(self.upstreams)
        for k in range(n):
            idx = (self._aw_rr + k) % n
            up = self.upstreams[idx]
            if up.aw.can_pop():
                req = up.aw.pop()
                self.down.push_aw(
                    cycle,
                    AWReq(self._remap(idx, req.axi_id), req.addr, req.length, req.tag),
                )
                self._w_order.append((idx, req.length))
                self._aw_rr = (idx + 1) % n
                self.forwarded["aw"] += 1
                return

    def _forward_w(self, cycle: int) -> None:
        if not self._w_order:
            return
        idx, remaining = self._w_order[0]
        up = self.upstreams[idx]
        if not self.down.port.w.can_push():
            if self._stall_since["w"] < 0 and up.w.can_pop():
                self._stall_since["w"] = cycle
            return
        if self._stall_since["w"] >= 0:
            self.stall_cycles["w"] += cycle - self._stall_since["w"]
            self._stall_since["w"] = -1
        if not up.w.can_pop():
            return
        beat = up.w.pop()
        self.down.push_w(cycle, beat)
        remaining -= 1
        self.forwarded["w"] += 1
        if beat.last:
            if remaining != 0:
                raise SimulationError(f"{self.name}: W burst length mismatch")
            self._w_order.popleft()
        else:
            self._w_order[0] = (idx, remaining)

    def _route_r(self, cycle: int) -> None:
        down_r = self.down.port.r
        if not down_r.can_pop():
            return
        axi_id, beat = down_r.peek()
        idx, local_id = self._unmap(axi_id)
        if idx >= len(self.upstreams):
            raise SimulationError(f"{self.name}: R beat for unknown upstream {idx}")
        up = self.upstreams[idx]
        if not up.r.can_push():
            if self._stall_since["r"] < 0:
                self._stall_since["r"] = cycle
            return
        if self._stall_since["r"] >= 0:
            self.stall_cycles["r"] += cycle - self._stall_since["r"]
            self._stall_since["r"] = -1
        down_r.pop()
        hook = self._fault
        if hook is not None:
            beat = hook.filter_r(cycle, axi_id, beat)
            if beat is None:
                return  # beat lost on the link; the burst can never complete
        up.r.push((local_id, beat))
        self.forwarded["r"] += 1

    def _route_b(self, cycle: int) -> None:
        down_b = self.down.port.b
        if not down_b.can_pop():
            return
        axi_id, resp = down_b.peek()
        idx, local_id = self._unmap(axi_id)
        if idx >= len(self.upstreams):
            raise SimulationError(f"{self.name}: B resp for unknown upstream {idx}")
        up = self.upstreams[idx]
        if not up.b.can_push():
            if self._stall_since["b"] < 0:
                self._stall_since["b"] = cycle
            return
        if self._stall_since["b"] >= 0:
            self.stall_cycles["b"] += cycle - self._stall_since["b"]
            self._stall_since["b"] = -1
        down_b.pop()
        hook = self._fault
        if hook is not None and hook.drop_b(cycle, axi_id):
            return  # response lost; the writer stalls and the watchdog fires
        up.b.push((local_id, resp))
        self.forwarded["b"] += 1

    def next_event(self, cycle: int) -> float:
        # Purely reactive: every action pops a visible channel item, so with
        # all channels empty the node provably does nothing.
        return NEVER

    #: Constant-NEVER hint — lets the compiled scheduler skip the hint call.
    wake_only = True

    def channels(self):
        return []  # ports are registered by the builder

    def wake_channels(self):
        # Reacts to requests arriving on any upstream port and to response
        # beats (or freed space) on the downstream port.
        chans = []
        for up in self.upstreams:
            chans.extend(up.channels())
        chans.extend(self.down.port.channels())
        return chans

    # -- compiled tick -------------------------------------------------------
    def compile_tick(self):
        """Specialised tick: same phases and arbitration decisions as
        :meth:`tick` with channel endpoints, round-robin order and ID
        remapping constants resolved at compile time.  ``ar_rot[rr]`` is the
        AR visiting order from round-robin position ``rr`` as
        ``(index, channel)`` pairs (``aw_rot`` likewise); ``_ar_rr`` and
        ``_aw_rr`` stay the state."""
        ups = self.upstreams
        n = len(ups)
        up_ar = [u.ar for u in ups]
        up_aw = [u.aw for u in ups]
        order = [[*range(rr, n), *range(rr)] for rr in range(n)]
        ar_rot = tuple(tuple((idx, up_ar[idx]) for idx in o) for o in order)
        aw_rot = tuple(tuple((idx, up_aw[idx]) for idx in o) for o in order)
        up_w = [u.w for u in ups]
        up_r = [u.r for u in ups]
        up_b = [u.b for u in ups]
        down = self.down
        d = down.port
        d_ar, d_aw, d_w, d_r, d_b = d.ar, d.aw, d.w, d.r, d.b
        push_ar, push_aw, push_w = down.push_ar, down.push_aw, down.push_w
        child_bits = self.child_id_bits
        child_mask = (1 << child_bits) - 1
        w_order = self._w_order
        forwarded = self.forwarded
        stall_cycles = self.stall_cycles
        stall_since = self._stall_since
        name = self.name

        def tick(cycle, self=self):
            # -- AR arbitration -------------------------------------------
            if len(d_ar._items) + len(d_ar._staged) < d_ar.capacity:
                since = stall_since["ar"]
                if since >= 0:
                    stall_cycles["ar"] += cycle - since
                    stall_since["ar"] = -1
                for idx, chan in ar_rot[self._ar_rr]:
                    if chan._pop_count < len(chan._items):
                        req = chan.pop()
                        push_ar(
                            cycle,
                            ARReq(
                                (idx << child_bits) | req.axi_id,
                                req.addr,
                                req.length,
                                req.tag,
                            ),
                        )
                        idx += 1
                        self._ar_rr = idx if idx < n else 0
                        forwarded["ar"] += 1
                        break
            elif stall_since["ar"] < 0:
                for chan in up_ar:
                    if chan._pop_count < len(chan._items):
                        stall_since["ar"] = cycle
                        break
            # -- AW arbitration -------------------------------------------
            if len(d_aw._items) + len(d_aw._staged) < d_aw.capacity:
                since = stall_since["aw"]
                if since >= 0:
                    stall_cycles["aw"] += cycle - since
                    stall_since["aw"] = -1
                for idx, chan in aw_rot[self._aw_rr]:
                    if chan._pop_count < len(chan._items):
                        req = chan.pop()
                        push_aw(
                            cycle,
                            AWReq(
                                (idx << child_bits) | req.axi_id,
                                req.addr,
                                req.length,
                                req.tag,
                            ),
                        )
                        w_order.append((idx, req.length))
                        idx += 1
                        self._aw_rr = idx if idx < n else 0
                        forwarded["aw"] += 1
                        break
            elif stall_since["aw"] < 0:
                for chan in up_aw:
                    if chan._pop_count < len(chan._items):
                        stall_since["aw"] = cycle
                        break
            # -- W streaming (locked to AW order) -------------------------
            if w_order:
                idx, remaining = w_order[0]
                chan = up_w[idx]
                if len(d_w._items) + len(d_w._staged) < d_w.capacity:
                    since = stall_since["w"]
                    if since >= 0:
                        stall_cycles["w"] += cycle - since
                        stall_since["w"] = -1
                    if chan._pop_count < len(chan._items):
                        beat = chan.pop()
                        push_w(cycle, beat)
                        remaining -= 1
                        forwarded["w"] += 1
                        if beat.last:
                            if remaining != 0:
                                raise SimulationError(
                                    f"{name}: W burst length mismatch"
                                )
                            w_order.popleft()
                        else:
                            w_order[0] = (idx, remaining)
                elif stall_since["w"] < 0 and chan._pop_count < len(chan._items):
                    stall_since["w"] = cycle
            # -- R routing ------------------------------------------------
            if d_r._pop_count < len(d_r._items):
                axi_id, beat = d_r._items[d_r._pop_count]
                idx = axi_id >> child_bits
                if idx >= n:
                    raise SimulationError(
                        f"{name}: R beat for unknown upstream {idx}"
                    )
                chan = up_r[idx]
                if len(chan._items) + len(chan._staged) < chan.capacity:
                    since = stall_since["r"]
                    if since >= 0:
                        stall_cycles["r"] += cycle - since
                        stall_since["r"] = -1
                    d_r.pop()
                    hook = self._fault
                    if hook is not None:
                        beat = hook.filter_r(cycle, axi_id, beat)
                    if beat is not None:
                        chan.push((axi_id & child_mask, beat))
                        forwarded["r"] += 1
                elif stall_since["r"] < 0:
                    stall_since["r"] = cycle
            # -- B routing ------------------------------------------------
            if d_b._pop_count < len(d_b._items):
                axi_id, resp = d_b._items[d_b._pop_count]
                idx = axi_id >> child_bits
                if idx >= n:
                    raise SimulationError(
                        f"{name}: B resp for unknown upstream {idx}"
                    )
                chan = up_b[idx]
                if len(chan._items) + len(chan._staged) < chan.capacity:
                    since = stall_since["b"]
                    if since >= 0:
                        stall_cycles["b"] += cycle - since
                        stall_since["b"] = -1
                    d_b.pop()
                    hook = self._fault
                    if not (hook is not None and hook.drop_b(cycle, axi_id)):
                        chan.push((axi_id & child_mask, resp))
                        forwarded["b"] += 1
                elif stall_since["b"] < 0:
                    stall_since["b"] = cycle

        return tick


class AxiPipe(Component):
    """A fixed extra-latency register slice on every AXI channel.

    Models the deep buffering Beethoven inserts on SLR crossings.  Items
    popped from the upstream port become pushable downstream ``latency``
    cycles later (on top of the usual one-cycle channel registration).
    """

    _snapshot_exclude = ("down", "up")  # wiring, rebuilt by elaboration

    def __init__(self, upstream: AxiPort, downstream, latency: int, name: str = "axipipe") -> None:
        super().__init__(name)
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.up = upstream
        self.down = as_link(downstream)
        self.latency = latency
        self._delay: dict = {ch: deque() for ch in ("ar", "aw", "w", "r", "b")}

    @property
    def metric_path(self) -> str:
        return "noc/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("latency", lambda: self.latency)
        for ch in ("ar", "aw", "w", "r", "b"):
            scope.bind(f"in_flight_{ch}", lambda ch=ch: len(self._delay[ch]))

    def tick(self, cycle: int) -> None:
        self._ingest(cycle, "ar", self.up.ar)
        self._ingest(cycle, "aw", self.up.aw)
        self._ingest(cycle, "w", self.up.w)
        self._ingest(cycle, "r", self.down.port.r)
        self._ingest(cycle, "b", self.down.port.b)
        self._drain(cycle, "ar", lambda item: self.down.push_ar(cycle, item), self.down.port.ar)
        self._drain(cycle, "aw", lambda item: self.down.push_aw(cycle, item), self.down.port.aw)
        self._drain(cycle, "w", lambda item: self.down.push_w(cycle, item), self.down.port.w)
        self._drain(cycle, "r", lambda item: self.up.r.push(item), self.up.r)
        self._drain(cycle, "b", lambda item: self.up.b.push(item), self.up.b)

    def _ingest(self, cycle: int, key: str, chan) -> None:
        if chan.can_pop():
            self._delay[key].append((cycle + self.latency, chan.pop()))

    def _drain(self, cycle: int, key: str, push, chan) -> None:
        q = self._delay[key]
        if q and q[0][0] <= cycle and chan.can_push():
            push(q.popleft()[1])

    def next_event(self, cycle: int) -> float:
        """Sleep until the oldest in-flight item matures out of a delay line;
        ingest is channel-reactive."""
        heads = [q[0][0] for q in self._delay.values() if q]
        if not heads:
            return NEVER
        return max(cycle, min(heads))

    def compile_hint(self):
        """Same hint as :meth:`next_event` with the five delay deques bound
        and no intermediate list built."""
        queues = tuple(self._delay.values())

        def hint(cycle):
            best = NEVER
            for q in queues:
                if q:
                    due = q[0][0]
                    if due < best:
                        best = due
            if best < cycle:
                return cycle
            return best

        return hint

    def wake_channels(self):
        # Ingests from both port faces and drains into both, so traffic (or
        # freed space) on either side is a wake condition.
        return list(self.up.channels()) + list(self.down.port.channels())

    # -- compiled tick -------------------------------------------------------
    def compile_tick(self):
        """Specialised tick: the five ingest/drain pairs with delay deques and
        channel endpoints bound, identical ordering to :meth:`tick`."""
        up = self.up
        down = self.down
        d = down.port
        latency = self.latency
        delay = self._delay
        q_ar, q_aw, q_w, q_r, q_b = (
            delay["ar"], delay["aw"], delay["w"], delay["r"], delay["b"]
        )
        u_ar, u_aw, u_w, u_r, u_b = up.ar, up.aw, up.w, up.r, up.b
        d_ar, d_aw, d_w, d_r, d_b = d.ar, d.aw, d.w, d.r, d.b
        push_ar, push_aw, push_w = down.push_ar, down.push_aw, down.push_w

        def tick(cycle):
            due = cycle + latency
            if u_ar._pop_count < len(u_ar._items):
                q_ar.append((due, u_ar.pop()))
            if u_aw._pop_count < len(u_aw._items):
                q_aw.append((due, u_aw.pop()))
            if u_w._pop_count < len(u_w._items):
                q_w.append((due, u_w.pop()))
            if d_r._pop_count < len(d_r._items):
                q_r.append((due, d_r.pop()))
            if d_b._pop_count < len(d_b._items):
                q_b.append((due, d_b.pop()))
            if q_ar and q_ar[0][0] <= cycle and (
                len(d_ar._items) + len(d_ar._staged) < d_ar.capacity
            ):
                push_ar(cycle, q_ar.popleft()[1])
            if q_aw and q_aw[0][0] <= cycle and (
                len(d_aw._items) + len(d_aw._staged) < d_aw.capacity
            ):
                push_aw(cycle, q_aw.popleft()[1])
            if q_w and q_w[0][0] <= cycle and (
                len(d_w._items) + len(d_w._staged) < d_w.capacity
            ):
                push_w(cycle, q_w.popleft()[1])
            if q_r and q_r[0][0] <= cycle and (
                len(u_r._items) + len(u_r._staged) < u_r.capacity
            ):
                u_r.push(q_r.popleft()[1])
            if q_b and q_b[0][0] <= cycle and (
                len(u_b._items) + len(u_b._staged) < u_b.capacity
            ):
                u_b.push(q_b.popleft()[1])

        return tick
