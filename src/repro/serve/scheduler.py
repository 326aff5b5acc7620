"""Deficit-round-robin scheduling between tenants, with command batching.

The runtime server already arbitrates *clients* round-robin at MMIO-word
granularity; that is fair per command but blind to cost and weight.  The
serving layer adds a second, cost-aware stage in front of it: each tenant
owns a bounded queue, and a deficit-round-robin pass decides which queued
requests are released to the server.

DRR mechanics (Shreedhar & Varghese): every time the scheduler visits a
tenant whose queue is non-empty and whose in-flight window has room, the
tenant's *deficit* grows by ``QUANTUM_UNIT * weight``; requests are released
while the head's cost (its MMIO chunk count) fits in the deficit.  A tenant
whose queue drains forfeits its remaining deficit, so deficits stay bounded
by one maximal request cost and long-run service is proportional to weight.
Tenants are visited in one rotation, in registration order.

Batching: consecutive releases of the *same tenant and kernel* share a
batch id (capped at ``MAX_BATCH`` members), chained across pump calls until
a different tenant or kernel releases.  The runtime server then skips the
per-command lock-acquisition cost — but only when the batched command keeps
the bus continuously occupied (dispatch resumes the cycle the lock would
have been released), i.e. genuine back-to-back amortisation of the MMIO
serialisation the paper's Figure 6 contention model motivates.  An idle gap
or an interleaved command from another client pays the full cost again.
Batches never cross tenants, so coalescing cannot defeat fairness.

Determinism: scheduling decisions depend only on queue contents, integer
deficits and the visit rotation — all functions of model state at pump
cycles, which the two scheduling backends reproduce cycle-identically.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.serve.tenant import ServeTicket, TenantState

#: Deficit a tenant earns per DRR visit, per unit of weight, in MMIO chunks.
QUANTUM_UNIT = 4
#: Most commands one batch id may carry.
MAX_BATCH = 8


class DrrScheduler:
    """Weighted deficit-round-robin over per-tenant queues."""

    def __init__(self, tenants: Sequence[TenantState]) -> None:
        # Registration order is the round-robin order (deterministic by
        # construction); each round starts one tenant later.
        self._tenants: List[TenantState] = list(tenants)
        self._pos = 0
        self._next_batch = 1
        # Open batch chain: (tenant, kernel, batch_id, members).  The next
        # release continues it iff tenant and kernel match and the chain is
        # under MAX_BATCH; any other release (or a failed emit) breaks it.
        self._chain: Optional[Tuple[str, str, int, int]] = None
        self.rounds = 0
        self.dispatched = 0
        self.batches = 0
        #: Commands that rode in a batch after its first member (each one
        #: saves a lock acquisition at the server).
        self.coalesced = 0

    def register_metrics(self, scope) -> None:
        scope.bind("rounds", lambda: self.rounds)
        scope.bind("dispatched", lambda: self.dispatched)
        scope.bind("batches", lambda: self.batches)
        scope.bind("coalesced", lambda: self.coalesced)
        scope.bind("backlog", lambda: sum(len(s.queue) for s in self.states()))

    def states(self) -> List[TenantState]:
        return list(self._tenants)

    def dispatch_round(
        self, emit: Callable[[ServeTicket, int], bool]
    ) -> int:
        """One DRR pass; returns the number of tickets handed to ``emit``.

        ``emit(ticket, batch_id)`` dispatches the released request and
        returns True when it is genuinely in flight (False means it settled
        synchronously, e.g. every implementing core is quarantined).
        """
        self.rounds += 1
        released = 0
        states = self._tenants
        n = len(states)
        pos = self._pos
        for k in range(n):
            state = states[(pos + k) % n]
            if not state.queue or not state.can_dispatch():
                continue
            state.deficit += QUANTUM_UNIT * state.config.weight
            while state.queue and state.can_dispatch():
                head = state.queue[0]
                if head.cost > state.deficit:
                    break
                state.queue.popleft()
                state.deficit -= head.cost
                chain = self._chain
                if (
                    chain is not None
                    and chain[0] == state.name
                    and chain[1] == head.kernel
                    and chain[3] < MAX_BATCH
                ):
                    batch_id = chain[2]
                    self._chain = (chain[0], chain[1], batch_id, chain[3] + 1)
                    self.coalesced += 1
                else:
                    batch_id = self._next_batch
                    self._next_batch += 1
                    self._chain = (state.name, head.kernel, batch_id, 1)
                    self.batches += 1
                head.batch = batch_id
                released += 1
                self.dispatched += 1
                if not emit(head, batch_id):
                    # Settled synchronously; the slot is still free but
                    # the batch chain is broken (nothing hit the server).
                    self._chain = None
            if not state.queue:
                state.deficit = 0
        self._pos = (pos + 1) % n if n else 0
        return released

    def has_eligible_backlog(self) -> bool:
        """True when some queued tenant could dispatch given more deficit.

        The service pump keeps running rounds while this holds and nothing
        is in flight, so a request costlier than one quantum still
        accumulates enough deficit to launch (guaranteed progress: deficit
        grows every visit).
        """
        return any(
            state.queue and state.can_dispatch() for state in self.states()
        )
