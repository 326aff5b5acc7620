"""Tenant identity, quotas, and the admission controller.

A *tenant* is one customer of the serving layer: it owns a
:class:`~repro.runtime.handle.ClientHandle` (so the runtime server's
round-robin arbitration already separates its MMIO traffic), a bounded
command queue the DRR scheduler drains, and a quota envelope the admission
controller enforces *synchronously at submit time*:

* ``max_queued``       — bounded per-tenant queue; overflow is rejected.
* ``cycles_per_token`` — integer token-bucket rate limit (one admission per
  N cycles, with a burst allowance).  All arithmetic is integer cycles, so
  admission decisions are a pure function of submit cycles and therefore
  identical across scheduling backends.
* ``memory_budget_bytes`` — cap on the tenant's live device allocations,
  charged through :class:`~repro.serve.service.TenantSession`.
* ``kernels``          — optional allow-list of kernel classes.

``max_in_flight`` is *not* an admission quota: it is the dispatch-side
backpressure the scheduler honours, which keeps each tenant's footprint in
the runtime server bounded without rejecting work that merely has to wait
its turn.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.obs.registry import Histogram
from repro.serve.errors import REJECT_REASONS, AdmissionRejected


@dataclass(frozen=True)
class TenantConfig:
    """Static quota/weight envelope of one tenant."""

    name: str
    #: DRR weight: a tenant with weight 2 receives twice the deficit quantum.
    weight: int = 1
    #: Commands this tenant may have dispatched-but-unanswered at once.
    max_in_flight: int = 4
    #: Bounded queue depth; admission rejects (``queue_full``) past it.
    max_queued: int = 32
    #: Token-bucket rate: one admission per this many cycles (0 = unlimited).
    cycles_per_token: int = 0
    #: Burst allowance: admissions that may land back-to-back at full bucket.
    burst_tokens: int = 8
    #: Cap on live device-memory bytes (None = unlimited).
    memory_budget_bytes: Optional[int] = None
    #: Kernel classes this tenant may call (None = all).
    kernels: Optional[Tuple[str, ...]] = None


class TokenBucket:
    """Integer-cycle token bucket; deterministic across scheduling modes.

    The level is kept in *cycle units*: it refills by 1 per elapsed cycle up
    to ``burst * cycles_per_token`` and an admission costs ``cycles_per_token``
    units.  Everything is integer arithmetic on the submit cycle, so the
    accept/reject decision for a given arrival sequence is exact.
    """

    def __init__(self, cycles_per_token: int, burst: int) -> None:
        self.cycles_per_token = max(int(cycles_per_token), 0)
        self.capacity = max(int(burst), 1) * self.cycles_per_token
        self.level = self.capacity
        self._last_cycle = 0

    def _refill(self, cycle: int) -> None:
        if cycle > self._last_cycle:
            self.level = min(self.capacity, self.level + (cycle - self._last_cycle))
            self._last_cycle = cycle

    def try_take(self, cycle: int) -> bool:
        """Consume one token if available at ``cycle``."""
        if self.cycles_per_token <= 0:
            return True
        self._refill(cycle)
        if self.level >= self.cycles_per_token:
            self.level -= self.cycles_per_token
            return True
        return False

    def next_ready_cycle(self, cycle: int) -> int:
        """Earliest cycle a token will be available (== ``cycle`` if now)."""
        if self.cycles_per_token <= 0:
            return cycle
        self._refill(cycle)
        if self.level >= self.cycles_per_token:
            return cycle
        return cycle + (self.cycles_per_token - self.level)


@dataclass
class ServeTicket:
    """Lifecycle record of one admitted request.

    ``outcome`` moves ``queued -> in_flight -> ok | failed``; a rejected
    request never gets a ticket (admission raises instead).  All cycle
    stamps come from the simulator, so a ticket's metrics are identical
    across scheduling backends.
    """

    tenant: str
    kernel: str
    fields: Dict[str, int]
    #: DRR cost: number of MMIO command chunks this request serialises.
    cost: int
    seq: int
    submit_cycle: int
    dispatch_cycle: Optional[int] = None
    done_cycle: Optional[int] = None
    outcome: str = "queued"
    error: str = ""
    #: ``(system_id, core_id)`` the router chose.
    core: Optional[Tuple[int, int]] = None
    batch: Optional[int] = None
    #: Loadgen hook, invoked exactly once when the ticket settles.
    on_settle: Optional[object] = None

    @property
    def settled(self) -> bool:
        return self.outcome in ("ok", "failed")

    @property
    def latency(self) -> Optional[int]:
        """End-to-end latency (admission -> response), queueing included."""
        if self.done_cycle is None:
            return None
        return self.done_cycle - self.submit_cycle

    @property
    def queue_wait(self) -> Optional[int]:
        if self.dispatch_cycle is None:
            return None
        return self.dispatch_cycle - self.submit_cycle


class TenantState:
    """Mutable serving-side state of one tenant (queue, quota, metrics)."""

    def __init__(self, config: TenantConfig, client) -> None:
        self.config = config
        self.client = client
        self.queue: Deque[ServeTicket] = deque()
        self.in_flight = 0
        #: DRR deficit in command-chunk units.
        self.deficit = 0
        self.mem_used = 0
        self.bucket = TokenBucket(config.cycles_per_token, config.burst_tokens)
        self._next_seq = 0
        # Metrics (published under serve/tenant/<name>/ by the service).
        self.submitted = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = dict.fromkeys(REJECT_REASONS, 0)
        self.latency_hist = Histogram()
        self.queue_wait_hist = Histogram()

    @property
    def name(self) -> str:
        return self.config.name

    def next_seq(self) -> int:
        self._next_seq += 1
        return self._next_seq

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def can_dispatch(self) -> bool:
        return self.in_flight < self.config.max_in_flight

    def register_metrics(self, scope) -> None:
        scope.bind("submitted", lambda: self.submitted)
        scope.bind("admitted", lambda: self.admitted)
        scope.bind("completed", lambda: self.completed)
        scope.bind("failed", lambda: self.failed)
        for reason in self.rejected:
            scope.bind(f"rejected_{reason}", lambda reason=reason: self.rejected[reason])
        scope.bind("latency", lambda: self.latency_hist.dump_value())
        scope.bind("queue_wait", lambda: self.queue_wait_hist.dump_value())
        scope.bind("queued", lambda: len(self.queue))
        scope.bind("in_flight", lambda: self.in_flight)
        scope.bind("mem_used_bytes", lambda: self.mem_used)


class AdmissionController:
    """Synchronous, typed admission decisions against tenant quotas."""

    def __init__(self, tenants: Dict[str, TenantState]) -> None:
        self._tenants = tenants

    def _reject(self, state: TenantState, reason: str, kernel: str, detail: str):
        state.rejected[reason] += 1
        raise AdmissionRejected(
            f"tenant {state.name!r}: {detail}",
            tenant=state.name,
            reason=reason,
            kernel=kernel,
        )

    def admit(self, cycle: int, state: TenantState, kernel: str, known: bool) -> None:
        """Admit one request or raise :class:`AdmissionRejected`.

        Checks run cheapest-first and the token is consumed last, so a
        rejection never burns rate budget.
        """
        cfg = state.config
        state.submitted += 1
        if not known:
            self._reject(
                state, "unknown_kernel", kernel,
                f"no core in this design implements kernel {kernel!r}",
            )
        if cfg.kernels is not None and kernel not in cfg.kernels:
            self._reject(
                state, "kernel_not_allowed", kernel,
                f"kernel {kernel!r} not in tenant allow-list {cfg.kernels}",
            )
        if len(state.queue) >= cfg.max_queued:
            self._reject(
                state, "queue_full", kernel,
                f"queue depth {len(state.queue)} at bound {cfg.max_queued}",
            )
        if not state.bucket.try_take(cycle):
            self._reject(
                state, "rate_limited", kernel,
                f"token bucket empty at cycle {cycle} "
                f"(next token at {state.bucket.next_ready_cycle(cycle)})",
            )
        state.admitted += 1

    def charge_memory(self, state: TenantState, n_bytes: int) -> None:
        """Reserve ``n_bytes`` against the tenant's budget or reject."""
        budget = state.config.memory_budget_bytes
        if budget is not None and state.mem_used + n_bytes > budget:
            state.rejected["memory_budget"] += 1
            raise AdmissionRejected(
                f"tenant {state.name!r}: allocation of {n_bytes} B would exceed "
                f"memory budget ({state.mem_used}/{budget} B live)",
                tenant=state.name,
                reason="memory_budget",
            )
        state.mem_used += n_bytes

    def release_memory(self, state: TenantState, n_bytes: int) -> None:
        state.mem_used = max(0, state.mem_used - n_bytes)
