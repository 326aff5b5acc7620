"""The multi-tenant accelerator service.

``AcceleratorService`` composes the serving layer on top of one
:class:`~repro.runtime.FpgaHandle`:

* every tenant gets its own :class:`~repro.runtime.handle.ClientHandle`
  (so the runtime server's per-client FIFO + round-robin arbitration is the
  final fairness stage on the MMIO bus);
* :class:`~repro.serve.tenant.AdmissionController` applies quotas
  synchronously at submit, raising typed
  :class:`~repro.serve.errors.AdmissionRejected` instead of queueing
  unboundedly;
* :class:`~repro.serve.scheduler.DrrScheduler` releases queued requests by
  weighted deficit-round-robin, tagging compatible consecutive releases with
  a shared batch id the server uses to skip lock-acquisition cost;
* :class:`~repro.serve.routing.KernelRouter` turns kernel-class names into
  ``(system, core)`` placements over healthy cores, failing over around the
  watchdog's quarantine set.

Event model: the service is *pump-driven*.  A pump (one or more DRR rounds)
runs when a request is submitted and when an in-flight request settles — the
settle path runs inside the runtime server's poll tick via
``ResponseHandle.add_done_callback``, which is the same safe mid-tick
resubmission pattern the watchdog's retry path already uses.  Between pumps
the service is pure model state, so every decision happens at cycles the
two scheduling backends reproduce identically.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.serve.errors import AdmissionRejected, UnknownTenant
from repro.serve.routing import KernelRouter
from repro.serve.scheduler import DrrScheduler
from repro.serve.tenant import (
    AdmissionController,
    ServeTicket,
    TenantConfig,
    TenantState,
)


class TenantSession:
    """A tenant-scoped view of the service: memory budget + submission."""

    def __init__(self, service: "AcceleratorService", state: TenantState) -> None:
        self._service = service
        self._state = state

    @property
    def tenant(self) -> str:
        return self._state.name

    def malloc(self, n_bytes: int):
        """Allocate device memory charged to this tenant's budget."""
        self._service.admission.charge_memory(self._state, n_bytes)
        try:
            return self._state.client.malloc(n_bytes)
        except BaseException:
            self._service.admission.release_memory(self._state, n_bytes)
            raise

    def free(self, ptr) -> None:
        self._state.client.free(ptr)
        self._service.admission.release_memory(self._state, ptr.size)

    def copy_to_fpga(self, ptr) -> None:
        self._state.client.copy_to_fpga(ptr)

    def copy_from_fpga(self, ptr) -> None:
        self._state.client.copy_from_fpga(ptr)

    def submit(self, kernel: str, **fields) -> ServeTicket:
        return self._service.submit(self._state.name, kernel, **fields)


class AcceleratorService:
    """Admission + fair scheduling + heterogeneous routing over one handle."""

    def __init__(
        self,
        handle,
        tenants: Iterable[TenantConfig],
        quantum_unit: int = 4,
        max_batch: int = 8,
    ) -> None:
        self.handle = handle
        self.design = handle.design
        self.router = KernelRouter(self.design)
        self._tenants: Dict[str, TenantState] = {}
        registry = self.design.registry
        for cfg in tenants:
            if cfg.name in self._tenants:
                raise ValueError(f"duplicate tenant name {cfg.name!r}")
            client = handle.new_client(cfg.name)
            client.tenant = cfg.name
            state = TenantState(cfg, client)
            state.register_metrics(registry.scope(f"serve/tenant/{cfg.name}"))
            self._tenants[cfg.name] = state
        if not self._tenants:
            raise ValueError("a service needs at least one tenant")
        self.admission = AdmissionController(self._tenants)
        self.scheduler = DrrScheduler(
            list(self._tenants.values()), quantum_unit=quantum_unit,
            max_batch=max_batch,
        )
        self.scheduler.register_metrics(registry.scope("serve/sched"))
        self.router.register_metrics(registry.scope("serve/routing"))
        registry.scope("serve").bind("settled", lambda: self._settled)
        self._settled = 0
        #: Tickets admitted and not yet settled (queued or in flight).
        self._outstanding = 0
        self._in_pump = False

    # -------------------------------------------------------------- tenants
    def tenant(self, name: str) -> TenantState:
        try:
            return self._tenants[name]
        except KeyError:
            raise UnknownTenant(
                f"no tenant {name!r} (configured: {sorted(self._tenants)})",
                tenant=name,
            ) from None

    def tenants(self) -> List[TenantState]:
        return list(self._tenants.values())

    def session(self, name: str) -> TenantSession:
        return TenantSession(self, self.tenant(name))

    # ------------------------------------------------------------ submission
    def submit(self, tenant: str, kernel: str, **fields) -> ServeTicket:
        """Admit one request or raise :class:`AdmissionRejected`.

        An admitted request is queued under its tenant and released by the
        DRR pump; the returned ticket carries its full lifecycle.
        """
        state = self.tenant(tenant)
        cycle = self.design.sim.cycle
        known = self.router.implements(kernel)
        self.admission.admit(cycle, state, kernel, known)
        ticket = ServeTicket(
            tenant=tenant,
            kernel=kernel,
            fields=dict(fields),
            cost=self.router.command_cost(kernel, fields),
            seq=state.next_seq(),
            submit_cycle=cycle,
        )
        state.queue.append(ticket)
        self._outstanding += 1
        self.pump()
        return ticket

    # ----------------------------------------------------------------- pump
    def unhealthy_cores(self) -> Set[Tuple[int, int]]:
        return set(self.handle.server.quarantined) | set(self.handle.degraded_cores)

    def pump(self) -> int:
        """Run DRR rounds until no further release is possible right now.

        Re-entrant calls (a synchronous settle scheduling new work while a
        round is mid-flight) are folded into the outer loop, which keeps
        re-running rounds until a fixpoint.  When nothing is in flight but a
        queued head costs more than one quantum, extra rounds accrue deficit
        until it launches — guaranteed progress, bounded by the head's cost.
        """
        if self._in_pump:
            return 0
        self._in_pump = True
        total = 0
        try:
            while True:
                released = self.scheduler.dispatch_round(self._dispatch_one)
                total += released
                if released:
                    continue
                if self.total_in_flight == 0 and self.scheduler.has_eligible_backlog():
                    continue  # accrue deficit for an expensive head request
                break
        finally:
            self._in_pump = False
        return total

    def _dispatch_one(self, ticket: ServeTicket, batch_id: int) -> bool:
        state = self._tenants[ticket.tenant]
        cycle = self.design.sim.cycle
        try:
            slot = self.router.route(ticket.kernel, self.unhealthy_cores())
        except Exception as exc:  # typed CoreQuarantined / KeyError
            self._settle(ticket, "failed", f"{type(exc).__name__}: {exc}")
            return False
        ticket.dispatch_cycle = cycle
        ticket.core = slot.key
        ticket.outcome = "in_flight"
        state.in_flight += 1
        self.router.note_dispatch(slot.key)
        state.queue_wait_hist.observe(cycle - ticket.submit_cycle)
        fut = state.client.call(
            slot.system_name,
            ticket.kernel,
            slot.core_id,
            _batch=batch_id,
            **ticket.fields,
        )
        fut.add_done_callback(lambda f, t=ticket: self._on_done(t, f))
        return True

    def _on_done(self, ticket: ServeTicket, fut) -> None:
        state = self._tenants[ticket.tenant]
        state.in_flight -= 1
        if ticket.core is not None:
            self.router.note_done(ticket.core)
        try:
            fut.try_get()
        except Exception as exc:  # typed fault-layer errors
            self._settle(ticket, "failed", f"{type(exc).__name__}: {exc}")
        else:
            self._settle(ticket, "ok", "")
        self.pump()

    def _settle(self, ticket: ServeTicket, outcome: str, error: str) -> None:
        state = self._tenants[ticket.tenant]
        ticket.done_cycle = self.design.sim.cycle
        ticket.outcome = outcome
        ticket.error = error
        self._settled += 1
        self._outstanding -= 1
        if outcome == "ok":
            state.completed += 1
            state.latency_hist.observe(ticket.latency)
        else:
            state.failed += 1
        if ticket.on_settle is not None:
            ticket.on_settle(ticket)

    # ------------------------------------------------------------ inspection
    @property
    def total_in_flight(self) -> int:
        return sum(s.in_flight for s in self._tenants.values())

    def drained(self) -> bool:
        """True when no tenant has queued or in-flight work.

        O(1): a wait predicate evaluates this after every stepped cycle."""
        return self._outstanding == 0

    def run_until_drained(self, max_cycles: int = 10_000_000) -> int:
        """Advance the simulation until every admitted request settled.

        ``drained`` is a pure model-state predicate (never a cycle-number
        comparison), so the wait is safe under event-skipping backends; a
        blown budget raises the kernel's typed DeadlockError.
        """
        if self.drained():
            return self.design.sim.cycle
        return self.handle.run_until(self.drained, max_cycles)
