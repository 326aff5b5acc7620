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
from repro.noc.links import PlainAxiLink, as_link
from repro.sim import NEVER, Component, SimulationError


#: The five AXI channels, in the order a hop serves them.
CHANNELS = ("ar", "aw", "w", "r", "b")


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

    _state = ("_fault", "_ar_rr", "_aw_rr", "_w_order", "forwarded", "stall_cycles",
              "_stall_since")

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
        # Items forwarded per channel (a dropped R beat or B is not).
        self.forwarded = dict.fromkeys(CHANNELS, 0)
        # Contention accounting (repro.obs.attribution): cycles each channel
        # spent with an item ready to forward but the receiving side full.
        # ``_stall_since[ch] >= 0`` marks an open stall window; the window is
        # closed (and accrued) at the first tick the blocked side has room
        # again.  Stall windows only open while the blocking channels are
        # non-empty, so every open/close tick is executed under both
        # scheduling modes and the counters are mode-identical.
        self.stall_cycles = dict.fromkeys(CHANNELS, 0)
        self._stall_since = dict.fromkeys(CHANNELS, -1)

    @property
    def metric_path(self) -> str:
        return "noc/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        for ch in CHANNELS:
            scope.bind(f"forwarded_{ch}", lambda ch=ch: self.forwarded[ch])
            scope.bind(f"stall_{ch}_cycles", lambda ch=ch: self.stall_cycles[ch])
        scope.bind("upstreams", lambda: len(self.upstreams))

    # Purely reactive: every action pops a visible channel item, so with
    # all channels empty the node provably does nothing.
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

    # -- tick ---------------------------------------------------------------
    def compile_tick(self):
        """The tick, once per cycle: forward one AR and one AW (round-robin
        over the upstreams, IDs remapped), one W beat (locked to AW order),
        then route one R beat and one B response back by their upstream
        bits.  Channel endpoints, round-robin orders and ID constants are
        bound once: ``ar_rot[rr]`` is the AR visiting order from round-robin
        position ``rr`` as ``(index, channel)`` pairs (``aw_rot`` likewise);
        ``_ar_rr`` and ``_aw_rr`` stay the state.

        Every channel the node pops (upstream AR, AW and W, downstream R
        and B) has it as its one consumer, so a bound ``_items`` list is
        truthy exactly when the channel has a visible item, its head is
        ``items[0]`` and popping it is ``_pop_count = 1`` (DESIGN.md, "One
        consumer per popped channel").  A transfer is moved under the guard
        the node already tests: it sets the pop count or appends to the
        receiving ``_staged`` list and puts the channel on its dirty list
        itself, instead of calling ``pop``/``push``, which would test
        again.  A stall window opens only with a request pending, which
        only this node takes, so AR and AW skip their whole section while
        every upstream is empty."""
        ups = self.upstreams
        n = len(ups)
        up_ar = [u.ar for u in ups]
        up_aw = [u.aw for u in ups]
        order = [[*range(rr, n), *range(rr)] for rr in range(n)]
        ar_rot = tuple(tuple((idx, up_ar[idx], up_ar[idx]._items) for idx in o) for o in order)
        aw_rot = tuple(tuple((idx, up_aw[idx], up_aw[idx]._items) for idx in o) for o in order)
        up_w = [u.w for u in ups]
        up_r = [u.r for u in ups]
        up_b = [u.b for u in ups]
        up_ar_items = tuple(chan._items for chan in up_ar)
        up_aw_items = tuple(chan._items for chan in up_aw)
        down = self.down
        d = down.port
        dar, dar_staged, dar_cap = d.ar._items, d.ar._staged, d.ar.capacity
        daw, daw_staged, daw_cap = d.aw._items, d.aw._staged, d.aw.capacity
        d_w, dw, dw_staged, dw_cap = d.w, d.w._items, d.w._staged, d.w.capacity
        d_r, d_b, dr, db = d.r, d.b, d.r._items, d.b._items
        push_ar, push_aw, push_w = down.push_ar, down.push_aw, down.push_w
        # A plain link's push_w is the bare channel push the room test
        # already guards, so a W beat is staged directly; a monitored port
        # also feeds its monitor.
        w_plain = type(down) is PlainAxiLink
        child_bits = self.child_id_bits
        child_mask = (1 << child_bits) - 1
        w_order = self._w_order
        forwarded = self.forwarded
        stall_cycles = self.stall_cycles
        stall_since = self._stall_since
        name = self.name

        def tick(cycle, self=self):
            # -- AR arbitration -------------------------------------------
            if any(up_ar_items):
                if len(dar) + len(dar_staged) < dar_cap:
                    since = stall_since["ar"]
                    if since >= 0:
                        stall_cycles["ar"] += cycle - since
                        stall_since["ar"] = -1
                    for idx, chan, items in ar_rot[self._ar_rr]:
                        if items:
                            req = items[0]
                            chan._pop_count = 1
                            if not chan._dirty:
                                chan._dirty = True
                                chan._sink.append(chan)
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
                    stall_since["ar"] = cycle
            # -- AW arbitration -------------------------------------------
            if any(up_aw_items):
                if len(daw) + len(daw_staged) < daw_cap:
                    since = stall_since["aw"]
                    if since >= 0:
                        stall_cycles["aw"] += cycle - since
                        stall_since["aw"] = -1
                    for idx, chan, items in aw_rot[self._aw_rr]:
                        if items:
                            req = items[0]
                            chan._pop_count = 1
                            if not chan._dirty:
                                chan._dirty = True
                                chan._sink.append(chan)
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
                    stall_since["aw"] = cycle
            # -- W streaming (locked to AW order) -------------------------
            if w_order:
                idx, remaining = w_order[0]
                chan = up_w[idx]
                if len(dw) + len(dw_staged) < dw_cap:
                    since = stall_since["w"]
                    if since >= 0:
                        stall_cycles["w"] += cycle - since
                        stall_since["w"] = -1
                    if chan._items:
                        beat = chan._items[0]
                        chan._pop_count = 1
                        if not chan._dirty:
                            chan._dirty = True
                            chan._sink.append(chan)
                        if w_plain:
                            dw_staged.append(beat)
                            if not d_w._dirty:
                                d_w._dirty = True
                                d_w._sink.append(d_w)
                        else:
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
                elif stall_since["w"] < 0 and chan._items:
                    stall_since["w"] = cycle
            # -- R routing ------------------------------------------------
            if dr:
                axi_id, beat = dr[0]
                idx = axi_id >> child_bits
                if idx >= n:
                    raise SimulationError(
                        f"{name}: R beat for unknown upstream {idx}"
                    )
                chan = up_r[idx]
                staged = chan._staged
                if len(chan._items) + len(staged) < chan.capacity:
                    since = stall_since["r"]
                    if since >= 0:
                        stall_cycles["r"] += cycle - since
                        stall_since["r"] = -1
                    d_r._pop_count = 1
                    if not d_r._dirty:
                        d_r._dirty = True
                        d_r._sink.append(d_r)
                    hook = self._fault
                    if hook is not None:
                        beat = hook.filter_r(cycle, axi_id, beat)
                    if beat is not None:
                        staged.append((axi_id & child_mask, beat))
                        if not chan._dirty:
                            chan._dirty = True
                            chan._sink.append(chan)
                        forwarded["r"] += 1
                elif stall_since["r"] < 0:
                    stall_since["r"] = cycle
            # -- B routing ------------------------------------------------
            if db:
                axi_id, resp = db[0]
                idx = axi_id >> child_bits
                if idx >= n:
                    raise SimulationError(
                        f"{name}: B resp for unknown upstream {idx}"
                    )
                chan = up_b[idx]
                staged = chan._staged
                if len(chan._items) + len(staged) < chan.capacity:
                    since = stall_since["b"]
                    if since >= 0:
                        stall_cycles["b"] += cycle - since
                        stall_since["b"] = -1
                    d_b._pop_count = 1
                    if not d_b._dirty:
                        d_b._dirty = True
                        d_b._sink.append(d_b)
                    hook = self._fault
                    if not (hook is not None and hook.drop_b(cycle, axi_id)):
                        staged.append((axi_id & child_mask, resp))
                        if not chan._dirty:
                            chan._dirty = True
                            chan._sink.append(chan)
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

    _state = ("_delay",)

    def __init__(self, upstream: AxiPort, downstream, latency: int, name: str = "axipipe") -> None:
        super().__init__(name)
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.up = upstream
        self.down = as_link(downstream)
        self.latency = latency
        # One delay line per channel, in CHANNELS order.  A restore refills
        # these deques in place, so whatever binds them stays valid.
        self._delay: Tuple[Deque, ...] = tuple(deque() for _ in CHANNELS)

    @property
    def metric_path(self) -> str:
        return "noc/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.bind("latency", lambda: self.latency)
        for i, ch in enumerate(CHANNELS):
            scope.bind(f"in_flight_{ch}", lambda i=i: len(self._delay[i]))

    #: The earliest head due cycle over the delay lines as the last hint
    #: found it: a run cache (``RUN_CACHES``), never captured, dropped by a
    #: restore.  Every item joins a line due no earlier than any in flight
    #: and a head only leaves once due, so the earliest due never falls: a
    #: finite value not yet passed is still exact, and only a passed one
    #: (a head left, or a matured head waits for room) or ``NEVER`` with
    #: something in flight sends the hint back to the lines.
    _next_due = NEVER

    def next_event(self, cycle: int) -> float:
        """Sleep until the oldest in-flight item matures out of a delay line;
        ingest is channel-reactive.  O(1) while the cached earliest due is
        still ahead."""
        due = self._next_due
        if due >= cycle and (due != NEVER or not any(self._delay)):
            return due
        due = NEVER
        for q in self._delay:
            if q:
                head = q[0][0]
                if head <= cycle:
                    return cycle  # matured (or waiting for room): next cycle
                if head < due:
                    due = head
        self._next_due = due
        return due

    def wake_channels(self):
        # Ingests from both port faces and drains into both, so traffic (or
        # freed space) on either side is a wake condition.
        return list(self.up.channels()) + list(self.down.port.channels())

    # -- tick ---------------------------------------------------------------
    def compile_tick(self):
        """The tick: ingest one item per channel into its delay line (due
        ``latency`` cycles later), then drain each line's matured head where
        the receiving channel has room — AR, AW, W, R, B in that order, with
        delay deques and channel endpoints bound once.  The pipe is the one
        consumer of every channel it ingests from, so a bound ``_items``
        list is truthy exactly when that channel has a visible item, which
        it then takes as the buffer node does: ``items[0]``, a pop count of
        one and a dirty mark.  R and B drain into the upstream port's
        ``_staged`` lists the same way."""
        up = self.up
        down = self.down
        d = down.port
        latency = self.latency
        q_ar, q_aw, q_w, q_r, q_b = self._delay
        u_ar, u_aw, u_w, u_r, u_b = up.ar, up.aw, up.w, up.r, up.b
        d_r, d_b = d.r, d.b
        in_ar, in_aw, in_w = u_ar._items, u_aw._items, u_w._items
        in_r, in_b = d_r._items, d_b._items
        dar, dar_staged, dar_cap = d.ar._items, d.ar._staged, d.ar.capacity
        daw, daw_staged, daw_cap = d.aw._items, d.aw._staged, d.aw.capacity
        d_w, dw, dw_staged, dw_cap = d.w, d.w._items, d.w._staged, d.w.capacity
        ur, ur_staged, ur_cap = u_r._items, u_r._staged, u_r.capacity
        ub, ub_staged, ub_cap = u_b._items, u_b._staged, u_b.capacity
        push_ar, push_aw, push_w = down.push_ar, down.push_aw, down.push_w
        w_plain = type(down) is PlainAxiLink  # as in AxiBufferNode

        def tick(cycle):
            due = cycle + latency
            if in_ar:
                q_ar.append((due, in_ar[0]))
                u_ar._pop_count = 1
                if not u_ar._dirty:
                    u_ar._dirty = True
                    u_ar._sink.append(u_ar)
            if in_aw:
                q_aw.append((due, in_aw[0]))
                u_aw._pop_count = 1
                if not u_aw._dirty:
                    u_aw._dirty = True
                    u_aw._sink.append(u_aw)
            if in_w:
                q_w.append((due, in_w[0]))
                u_w._pop_count = 1
                if not u_w._dirty:
                    u_w._dirty = True
                    u_w._sink.append(u_w)
            if in_r:
                q_r.append((due, in_r[0]))
                d_r._pop_count = 1
                if not d_r._dirty:
                    d_r._dirty = True
                    d_r._sink.append(d_r)
            if in_b:
                q_b.append((due, in_b[0]))
                d_b._pop_count = 1
                if not d_b._dirty:
                    d_b._dirty = True
                    d_b._sink.append(d_b)
            if q_ar and q_ar[0][0] <= cycle and len(dar) + len(dar_staged) < dar_cap:
                push_ar(cycle, q_ar.popleft()[1])
            if q_aw and q_aw[0][0] <= cycle and len(daw) + len(daw_staged) < daw_cap:
                push_aw(cycle, q_aw.popleft()[1])
            if q_w and q_w[0][0] <= cycle and len(dw) + len(dw_staged) < dw_cap:
                if w_plain:
                    dw_staged.append(q_w.popleft()[1])
                    if not d_w._dirty:
                        d_w._dirty = True
                        d_w._sink.append(d_w)
                else:
                    push_w(cycle, q_w.popleft()[1])
            if q_r and q_r[0][0] <= cycle and len(ur) + len(ur_staged) < ur_cap:
                ur_staged.append(q_r.popleft()[1])
                if not u_r._dirty:
                    u_r._dirty = True
                    u_r._sink.append(u_r)
            if q_b and q_b[0][0] <= cycle and len(ub) + len(ub_staged) < ub_cap:
                ub_staged.append(q_b.popleft()[1])
                if not u_b._dirty:
                    u_b._dirty = True
                    u_b._sink.append(u_b)

        return tick
