"""DRAM bank state machine.

Each bank tracks its open row and the cycle at which it next accepts a
command.  Row management is combined precharge+activate ("prep"): switching
rows costs ``t_rp + t_rcd`` cycles (respecting ``t_ras`` minimum open time),
after which column commands to the open row are unconstrained — at a 250 MHz
controller clock a DDR4 part sustains more than one 64-byte column per cycle,
so the shared data bus, not per-bank column timing, is the streaming limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.timing import DramTiming


@dataclass(slots=True)
class Bank:
    timing: DramTiming
    open_row: Optional[int] = None
    ready_at: int = 0  # cycle at which the bank next accepts a command
    activated_at: int = -(10**9)  # last activate, for t_ras
    # The open row was activated and has served no column yet.
    fresh: bool = False
    # Statistics: every column is one hit or one miss, the miss being the
    # first column after an activation.
    activations: int = 0
    row_hits: int = 0
    row_misses: int = 0

    _state = ("open_row", "ready_at", "activated_at", "fresh", "activations", "row_hits",
              "row_misses")

    def prep(self, row: int, cycle: int) -> None:
        """Begin precharge (if a row is open) + activate of ``row``."""
        cost = self.timing.t_rcd
        if self.open_row is not None:
            cost += self.timing.t_rp
        self.open_row = row
        self.ready_at = cycle + cost
        self.activated_at = cycle + cost - self.timing.t_rcd
        self.activations += 1
        self.fresh = True

    def block_for_refresh(self, cycle: int) -> None:
        self.ready_at = max(self.ready_at, cycle + self.timing.t_rfc)
        self.open_row = None
