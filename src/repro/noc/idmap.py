"""ID-space compression at the network root.

A composed tree gives every master a unique wide ID, but the external memory
controller supports a fixed, small ID space (the AWS F1 shell exposes a
handful of ID bits).  The compressor statically folds wide IDs onto the
controller's ID space (``wide_id % n_ids``, the scheme AXI SmartConnect-style
bridges use): transactions sharing a wide ID still share a narrow ID, so the
AXI per-ID ordering guarantee is preserved end-to-end, while unrelated masters
that collide on a narrow ID get (correctly) serialised — a real cost of
limited ID space that the model therefore reproduces.  Responses are routed
back by transaction tag.
"""

from __future__ import annotations

from typing import Dict

from repro.axi.types import ARReq, AWReq, AxiPort
from repro.noc.links import as_link
from repro.sim import NEVER, Component, SimulationError


class IdCompressor(Component):
    """Folds a wide upstream ID space onto the controller's narrow one."""

    _snapshot_exclude = ("up",)  # wiring, rebuilt by elaboration

    def __init__(self, upstream: AxiPort, downstream, name: str = "idmap") -> None:
        super().__init__(name)
        self.up = upstream
        self.down = as_link(downstream)
        self.n_ids = self.down.port.params.n_ids
        self._read_orig: Dict[int, int] = {}  # tag -> original wide id
        self._write_orig: Dict[int, int] = {}
        self.collisions = 0
        self._narrow_in_use: Dict[int, set] = {}

    def _fold(self, wide_id: int, live: Dict[int, set]) -> int:
        narrow = wide_id % self.n_ids
        users = live.setdefault(narrow, set())
        if users and wide_id not in users:
            self.collisions += 1
        users.add(wide_id)
        return narrow

    def next_event(self, cycle: int) -> float:
        return NEVER  # purely reactive: every action pops a channel item

    #: Constant-NEVER hint — lets the compiled scheduler skip the hint call.
    wake_only = True

    def wake_channels(self):
        # Forwards between the two port faces, neither of which it owns.
        return list(self.up.channels()) + list(self.down.port.channels())

    def compile_tick(self):
        """Specialised tick: the five forwarding lanes with endpoints bound
        and the can-pop/can-push guards inlined."""
        up = self.up
        down = self.down
        d = down.port
        u_ar, u_aw, u_w, u_r, u_b = up.ar, up.aw, up.w, up.r, up.b
        d_ar, d_aw, d_w, d_r, d_b = d.ar, d.aw, d.w, d.r, d.b
        push_ar, push_aw, push_w = down.push_ar, down.push_aw, down.push_w
        n_ids = self.n_ids
        read_orig = self._read_orig
        write_orig = self._write_orig
        fold = self._fold
        live = self._narrow_in_use
        name = self.name

        def tick(cycle):
            if u_ar._pop_count < len(u_ar._items) and (
                len(d_ar._items) + len(d_ar._staged) < d_ar.capacity
            ):
                req = u_ar.pop()
                narrow = fold(req.axi_id, live)
                read_orig[req.tag] = req.axi_id
                push_ar(cycle, ARReq(narrow, req.addr, req.length, req.tag))
            if u_aw._pop_count < len(u_aw._items) and (
                len(d_aw._items) + len(d_aw._staged) < d_aw.capacity
            ):
                req = u_aw.pop()
                write_orig[req.tag] = req.axi_id
                push_aw(cycle, AWReq(req.axi_id % n_ids, req.addr, req.length, req.tag))
            if u_w._pop_count < len(u_w._items) and (
                len(d_w._items) + len(d_w._staged) < d_w.capacity
            ):
                push_w(cycle, u_w.pop())
            if d_r._pop_count < len(d_r._items) and (
                len(u_r._items) + len(u_r._staged) < u_r.capacity
            ):
                beat = d_r.pop()[1]
                orig = read_orig.get(beat.tag)
                if orig is None:
                    raise SimulationError(
                        f"{name}: R beat with unknown tag {beat.tag}"
                    )
                u_r.push((orig, beat))
                if beat.last:
                    del read_orig[beat.tag]
            if d_b._pop_count < len(d_b._items) and (
                len(u_b._items) + len(u_b._staged) < u_b.capacity
            ):
                resp = d_b.pop()[1]
                orig = write_orig.pop(resp.tag, None)
                if orig is None:
                    raise SimulationError(
                        f"{name}: B resp with unknown tag {resp.tag}"
                    )
                u_b.push((orig, resp))

        return tick

    def tick(self, cycle: int) -> None:
        if self.up.ar.can_pop() and self.down.port.ar.can_push():
            req = self.up.ar.pop()
            narrow = self._fold(req.axi_id, self._narrow_in_use)
            self._read_orig[req.tag] = req.axi_id
            self.down.push_ar(cycle, ARReq(narrow, req.addr, req.length, req.tag))
        if self.up.aw.can_pop() and self.down.port.aw.can_push():
            req = self.up.aw.pop()
            narrow = req.axi_id % self.n_ids
            self._write_orig[req.tag] = req.axi_id
            self.down.push_aw(cycle, AWReq(narrow, req.addr, req.length, req.tag))
        if self.up.w.can_pop() and self.down.port.w.can_push():
            self.down.push_w(cycle, self.up.w.pop())
        if self.down.port.r.can_pop() and self.up.r.can_push():
            _narrow, beat = self.down.port.r.pop()
            orig = self._read_orig.get(beat.tag)
            if orig is None:
                raise SimulationError(f"{self.name}: R beat with unknown tag {beat.tag}")
            self.up.r.push((orig, beat))
            if beat.last:
                del self._read_orig[beat.tag]
        if self.down.port.b.can_pop() and self.up.b.can_push():
            _narrow, resp = self.down.port.b.pop()
            orig = self._write_orig.pop(resp.tag, None)
            if orig is None:
                raise SimulationError(f"{self.name}: B resp with unknown tag {resp.tag}")
            self.up.b.push((orig, resp))
