"""Link adapters so NoC nodes can drive monitored and plain ports alike.

The memory controller sits behind a :class:`~repro.axi.MonitoredAxiPort` (the
protocol checker), while interior tree links are plain ports.  Both expose the
same push interface through these adapters.
"""

from __future__ import annotations

from typing import Tuple

from repro.axi.monitor import MonitoredAxiPort
from repro.axi.types import ARReq, AWReq, AxiPort, BResp, RBeat, WBeat


class PlainAxiLink:
    """Master-side pushes onto an unmonitored :class:`AxiPort`."""

    def __init__(self, port: AxiPort) -> None:
        self.port = port

    def push_ar(self, cycle: int, req: ARReq) -> None:
        self.port.params.check_burst(req.addr, req.length)
        self.port.ar.push(req)

    def push_aw(self, cycle: int, req: AWReq) -> None:
        self.port.params.check_burst(req.addr, req.length)
        self.port.aw.push(req)

    def push_w(self, cycle: int, beat: WBeat) -> None:
        self.port.w.push(beat)

    def push_r(self, cycle: int, item: Tuple[int, RBeat]) -> None:
        self.port.r.push(item)

    def push_b(self, cycle: int, item: Tuple[int, BResp]) -> None:
        self.port.b.push(item)


def as_link(target) -> "PlainAxiLink | MonitoredAxiPort":
    """Normalise an AxiPort / MonitoredAxiPort / link into a link."""
    if isinstance(target, (PlainAxiLink, MonitoredAxiPort)):
        return target
    if isinstance(target, AxiPort):
        return PlainAxiLink(target)
    raise TypeError(f"cannot adapt {target!r} into an AXI link")
