"""SLR-aware floorplanning and the routability/timing feasibility model.

Beethoven places accelerator cores across SLRs before elaborating networks,
emits placement constraint files, and uses the placement to buffer SLR
crossings (Section II-B).  The floorplanner here is the greedy load balancer
that produced the paper's Figure 8 shape: cores go to the SLR with the lowest
projected worst-resource utilisation, which naturally biases cores away from
the shell-occupied SLR0/SLR1.

Because we have no Vivado, routing feasibility is a model:
:func:`routability_report` scores a placed design on the failure modes the
paper encountered — CLB over-utilisation, interconnect fanout congestion and
unbuffered die crossings — and reports pass/fail the way a timing run would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fpga.device import FpgaDevice, ResourceVector

#: Above this worst-resource utilisation a placement is unroutable.
UTIL_HARD_LIMIT = 0.97
#: Above this fanout a single arbiter is congestion-infeasible.
FANOUT_HARD_LIMIT = 24


@dataclass
class Placement:
    """Result of floorplanning: core -> SLR plus per-SLR loads."""

    assignment: Dict[str, int] = field(default_factory=dict)
    slr_load: Dict[int, ResourceVector] = field(default_factory=dict)

    def cores_on(self, slr: int) -> List[str]:
        return [name for name, s in self.assignment.items() if s == slr]


class Floorplanner:
    """Greedy worst-utilisation-balancing placer.

    ``reserve_fraction`` holds back capacity on every SLR for the networks
    that are elaborated *after* placement (memory tree nodes, command
    routing, SLR bridge buffering).
    """

    def __init__(self, device: FpgaDevice, reserve_fraction: float = 0.10) -> None:
        self.device = device
        self.reserve_fraction = reserve_fraction

    def _budget(self, slr: int) -> ResourceVector:
        return self.device.free_capacity(slr).scaled(1.0 - self.reserve_fraction)

    def place(self, cores: Sequence[Tuple[str, ResourceVector]]) -> Placement:
        """Assign each (name, resource) core to an SLR."""
        placement = Placement()
        budgets = [self._budget(slr) for slr in range(self.device.n_slrs)]
        for slr in range(self.device.n_slrs):
            placement.slr_load[slr] = ResourceVector()
        for name, vec in cores:
            best_slr, best_util = None, None
            for slr, budget in enumerate(budgets):
                projected = placement.slr_load[slr] + vec
                util = projected.max_utilisation_of(budget)
                if best_util is None or util < best_util:
                    best_slr, best_util = slr, util
            placement.assignment[name] = best_slr
            placement.slr_load[best_slr] = placement.slr_load[best_slr] + vec
        return placement

    def utilisation(self, placement: Placement) -> Dict[int, Dict[str, float]]:
        out = {}
        for slr in range(self.device.n_slrs):
            free = self.device.free_capacity(slr)
            out[slr] = placement.slr_load[slr].utilisation_of(free)
        return out


def emit_constraints(placement: Placement, device: FpgaDevice) -> str:
    """Emit an XDC-style placement constraint file for the design."""
    lines = [
        f"# Placement constraints generated for {device.name}",
        "# (Beethoven reproduction — pblock per SLR)",
    ]
    for slr in range(device.n_slrs):
        lines.append(f"create_pblock pblock_slr{slr}")
        lines.append(
            f"resize_pblock pblock_slr{slr} -add SLR{slr}"
        )
    for name in sorted(placement.assignment):
        slr = placement.assignment[name]
        lines.append(
            f"add_cells_to_pblock pblock_slr{slr} [get_cells {name}]"
        )
    return "\n".join(lines) + "\n"


@dataclass
class RoutabilityReport:
    """Outcome of the feasibility model for one placed design."""

    feasible: bool
    score: float  # 1.0 = comfortable, 0.0 = hopeless
    reasons: List[str] = field(default_factory=list)
    worst_util: float = 0.0
    max_fanout: int = 0
    unbuffered_crossings: int = 0


def routability_report(
    device: FpgaDevice,
    placement: Placement,
    interconnect_per_slr: Optional[Dict[int, ResourceVector]] = None,
    max_fanout: int = 0,
    unbuffered_crossings: int = 0,
    memcells_feasible: bool = True,
    constraints_emitted: bool = True,
) -> RoutabilityReport:
    """Score a placed design against the paper's observed failure modes."""
    reasons: List[str] = []
    worst = 0.0
    for slr in range(device.n_slrs):
        free = device.free_capacity(slr)
        load = placement.slr_load.get(slr, ResourceVector())
        if interconnect_per_slr:
            load = load + interconnect_per_slr.get(slr, ResourceVector())
        util = load.max_utilisation_of(free)
        worst = max(worst, util)
        if util > UTIL_HARD_LIMIT:
            reasons.append(f"SLR{slr} over-utilised ({util:.1%})")
        if util > 1.0:
            reasons.append(f"SLR{slr} demand exceeds capacity ({util:.1%})")
    if max_fanout > FANOUT_HARD_LIMIT:
        reasons.append(
            f"arbiter fanout {max_fanout} exceeds congestion limit {FANOUT_HARD_LIMIT}"
        )
    if unbuffered_crossings > 0:
        reasons.append(
            f"{unbuffered_crossings} unbuffered SLR crossings fail timing"
        )
    if not memcells_feasible:
        reasons.append("on-chip memory demand exceeds BRAM+URAM supply")
    if not constraints_emitted and device.n_slrs > 1:
        # The paper: the same RTL without placement constraints consistently
        # yielded poorer QoR and failed timing.
        reasons.append("multi-die design without placement constraints")
    score = max(0.0, 1.0 - worst) * (0.3 if reasons else 1.0)
    return RoutabilityReport(
        feasible=not reasons,
        score=score,
        reasons=reasons,
        worst_util=worst,
        max_fanout=max_fanout,
        unbuffered_crossings=unbuffered_crossings,
    )
