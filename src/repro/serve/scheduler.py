"""Deficit-round-robin scheduling between tenants, with command batching.

The runtime server already arbitrates *clients* round-robin at MMIO-word
granularity; that is fair per command but blind to cost and weight.  The
serving layer adds a second, cost-aware stage in front of it: each tenant
owns a bounded queue, and a deficit-round-robin pass decides which queued
requests are released to the server.

DRR mechanics (Shreedhar & Varghese): every time the scheduler visits a
tenant whose queue is non-empty and whose in-flight window has room, the
tenant's *deficit* grows by ``quantum_unit * weight``; requests are released
while the head's cost (its MMIO chunk count) fits in the deficit.  A tenant
whose queue drains forfeits its remaining deficit, so deficits stay bounded
by one maximal request cost and long-run service is proportional to weight.
Strict priority classes sit above this: class 0 tenants are fully served
before class 1 is visited at all (use with care — higher classes can starve).

Batching: consecutive releases of the *same tenant and kernel* share a
batch id (capped at ``max_batch`` members), chained across pump calls until
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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import Counter
from repro.serve.tenant import ServeTicket, TenantState


class DrrScheduler:
    """Weighted deficit-round-robin over per-tenant queues."""

    def __init__(
        self,
        tenants: Sequence[TenantState],
        quantum_unit: int = 4,
        max_batch: int = 8,
    ) -> None:
        if quantum_unit < 1:
            raise ValueError("quantum_unit must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.quantum_unit = quantum_unit
        self.max_batch = max_batch
        # Strict priority classes; within a class, registration order is the
        # round-robin order (deterministic by construction).
        classes: Dict[int, List[TenantState]] = {}
        for state in tenants:
            classes.setdefault(state.config.priority, []).append(state)
        self._classes: List[Tuple[int, List[TenantState]]] = sorted(classes.items())
        self._pos: Dict[int, int] = {prio: 0 for prio, _ in self._classes}
        self._next_batch = 1
        # Open batch chain: (tenant, kernel, batch_id, members).  The next
        # release continues it iff tenant and kernel match and the chain is
        # under max_batch; any other release (or a failed emit) breaks it.
        self._chain: Optional[Tuple[str, str, int, int]] = None
        self.rounds = Counter()
        self.dispatched = Counter()
        self.batches = Counter()
        #: Commands that rode in a batch after its first member (each one
        #: saves a lock acquisition at the server).
        self.coalesced = Counter()

    def register_metrics(self, scope) -> None:
        scope.attach("rounds", self.rounds)
        scope.attach("dispatched", self.dispatched)
        scope.attach("batches", self.batches)
        scope.attach("coalesced", self.coalesced)
        scope.bind("backlog", lambda: sum(len(s.queue) for s in self.states()))

    def states(self) -> List[TenantState]:
        return [s for _, states in self._classes for s in states]

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
        for prio, states in self._classes:
            n = len(states)
            pos = self._pos[prio]
            for k in range(n):
                state = states[(pos + k) % n]
                if not state.queue or not state.can_dispatch():
                    continue
                state.deficit += self.quantum_unit * state.config.weight
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
                        and chain[3] < self.max_batch
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
            self._pos[prio] = (pos + 1) % n if n else 0
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
