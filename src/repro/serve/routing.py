"""Named-kernel routing onto the heterogeneous core pool.

Clients of the serving layer address *kernel classes* ("gemm", "attn"), not
``(system, core)`` coordinates.  The router derives its table from the
elaborated design itself: a kernel class is the name of a command IO, and
every core of every system exposing that IO is a slot for it.  Two systems
exposing the same IO name pool their cores (cross-system failover for free).

Placement is least-loaded-first over the healthy slots, with a deterministic
``(in_flight, system_id, core_id)`` tie-break — no randomness, so the same
request sequence routes identically under every scheduling backend.  Health
comes from the existing quarantine machinery: slots whose core key the
watchdog has quarantined (or the handle marked degraded) are skipped, and
when *no* healthy slot implements the kernel the router raises the same
typed :class:`~repro.faults.errors.CoreQuarantined` the handle would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Tuple

from repro.faults.errors import CoreQuarantined


@dataclass(frozen=True)
class CoreSlot:
    """One (kernel, core) placement option."""

    kernel: str
    system_name: str
    system_id: int
    core_id: int

    @property
    def key(self) -> Tuple[int, int]:
        return (self.system_id, self.core_id)


class KernelRouter:
    """Maps kernel-class names onto the cores implementing them."""

    def __init__(self, design) -> None:
        self._design = design
        self._table: Dict[str, List[CoreSlot]] = {}
        self._specs: Dict[str, object] = {}
        for system in design.systems:
            for io in system.template_ctx.ios:
                kernel = io.command_spec.name
                self._specs.setdefault(kernel, io.command_spec)
                slots = self._table.setdefault(kernel, [])
                for core in system.cores:
                    slots.append(
                        CoreSlot(
                            kernel=kernel,
                            system_name=system.config.name,
                            system_id=system.system_id,
                            core_id=core.core_id,
                        )
                    )
        # Each kernel's slots with their keys, in (system_id, core_id) order:
        # the order ``route`` breaks load ties in.
        self._ordered: Dict[str, Tuple[Tuple[Tuple[int, int], CoreSlot], ...]] = {
            kernel: tuple(sorted((slot.key, slot) for slot in slots))
            for kernel, slots in self._table.items()
        }
        #: Service-visible in-flight commands per core key.
        self.in_flight: Dict[Tuple[int, int], int] = {}
        self.routed = 0
        #: Routes where quarantine changed the placement decision.
        self.failovers = 0

    def register_metrics(self, scope) -> None:
        scope.bind("routed", lambda: self.routed)
        scope.bind("failovers", lambda: self.failovers)

    def kernels(self) -> List[str]:
        return sorted(self._table)

    def implements(self, kernel: str) -> bool:
        return kernel in self._table

    def slots(self, kernel: str) -> List[CoreSlot]:
        return list(self._table.get(kernel, ()))

    def command_cost(self, kernel: str, fields: Dict[str, int]) -> int:
        """DRR cost of one request: its MMIO chunk count.  Packing it
        validates the fields, so a malformed request raises ``ValueError``."""
        spec = self._specs[kernel]
        return len(spec.pack(fields, self._design.platform.addr_bits))

    def route(self, kernel: str, unhealthy: AbstractSet[Tuple[int, int]]) -> CoreSlot:
        """Least-loaded healthy slot for ``kernel``; ties go to the lowest
        ``(system_id, core_id)``.  A route counts as a failover when
        skipping the unhealthy slots changed the choice."""
        slots = self._table.get(kernel)
        if not slots:
            raise KeyError(f"no core implements kernel {kernel!r}")
        in_flight = self.in_flight
        choice = least = None
        choice_load = least_load = 0
        for key, slot in self._ordered[kernel]:
            load = in_flight.get(key, 0)
            if least is None or load < least_load:
                least, least_load = slot, load
            if key not in unhealthy and (choice is None or load < choice_load):
                choice, choice_load = slot, load
        if choice is None:
            raise CoreQuarantined(
                f"every core implementing kernel {kernel!r} is quarantined "
                f"({len(slots)} slot(s))",
                key=slots[0].key,
            )
        self.routed += 1
        if choice is not least:
            self.failovers += 1
        return choice

    def note_dispatch(self, key: Tuple[int, int]) -> None:
        self.in_flight[key] = self.in_flight.get(key, 0) + 1

    def note_done(self, key: Tuple[int, int]) -> None:
        self.in_flight[key] = max(0, self.in_flight.get(key, 0) - 1)
