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
from repro.sim import Component, SimulationError


class IdCompressor(Component):
    """Folds a wide upstream ID space onto the controller's narrow one."""

    _state = ("_read_orig", "_write_orig")

    def __init__(self, upstream: AxiPort, downstream, name: str = "idmap") -> None:
        super().__init__(name)
        self.up = upstream
        self.down = as_link(downstream)
        self.n_ids = self.down.port.params.n_ids
        self._read_orig: Dict[int, int] = {}  # tag -> original wide id
        self._write_orig: Dict[int, int] = {}

    # Purely reactive: every action pops a channel item.
    wake_only = True

    def wake_channels(self):
        # Forwards between the two port faces, neither of which it owns.
        return list(self.up.channels()) + list(self.down.port.channels())

    def compile_tick(self):
        """The tick: five forwarding lanes, each moving one item when its
        source has one and its sink has room.  AR and AW fold the wide ID to
        ``wide % n_ids`` and remember it by tag; R and B restore it.  The
        compressor is the one consumer of every source lane, so a bound
        ``_items`` list is truthy exactly when it has a visible item."""
        up = self.up
        down = self.down
        d = down.port
        u_ar, u_aw, u_w, u_r, u_b = up.ar, up.aw, up.w, up.r, up.b
        d_r, d_b = d.r, d.b
        in_ar, in_aw, in_w = u_ar._items, u_aw._items, u_w._items
        in_r, in_b = d_r._items, d_b._items
        dar, dar_staged, dar_cap = d.ar._items, d.ar._staged, d.ar.capacity
        daw, daw_staged, daw_cap = d.aw._items, d.aw._staged, d.aw.capacity
        dw, dw_staged, dw_cap = d.w._items, d.w._staged, d.w.capacity
        ur, ur_staged, ur_cap = u_r._items, u_r._staged, u_r.capacity
        ub, ub_staged, ub_cap = u_b._items, u_b._staged, u_b.capacity
        push_ar, push_aw, push_w = down.push_ar, down.push_aw, down.push_w
        n_ids = self.n_ids
        read_orig = self._read_orig
        write_orig = self._write_orig
        name = self.name

        def tick(cycle):
            if in_ar and len(dar) + len(dar_staged) < dar_cap:
                req = u_ar.pop()
                read_orig[req.tag] = req.axi_id
                push_ar(cycle, ARReq(req.axi_id % n_ids, req.addr, req.length, req.tag))
            if in_aw and len(daw) + len(daw_staged) < daw_cap:
                req = u_aw.pop()
                write_orig[req.tag] = req.axi_id
                push_aw(cycle, AWReq(req.axi_id % n_ids, req.addr, req.length, req.tag))
            if in_w and len(dw) + len(dw_staged) < dw_cap:
                push_w(cycle, u_w.pop())
            if in_r and len(ur) + len(ur_staged) < ur_cap:
                beat = d_r.pop()[1]
                orig = read_orig.get(beat.tag)
                if orig is None:
                    raise SimulationError(
                        f"{name}: R beat with unknown tag {beat.tag}"
                    )
                u_r.push((orig, beat))
                if beat.last:
                    del read_orig[beat.tag]
            if in_b and len(ub) + len(ub_staged) < ub_cap:
                resp = d_b.pop()[1]
                orig = write_orig.pop(resp.tag, None)
                if orig is None:
                    raise SimulationError(
                        f"{name}: B resp with unknown tag {resp.tag}"
                    )
                u_b.push((orig, resp))

        return tick
