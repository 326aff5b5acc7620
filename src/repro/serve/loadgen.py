"""Deterministic load generation and SLO reporting for the serving layer.

Arrival processes are *seeded and simulated-time-only*: open-loop
interarrival gaps are drawn up front from a per-tenant PRNG (so the whole
arrival schedule is a pure function of the seed), and closed-loop arrivals
are driven by request settlement, which the cycle-identical scheduling
backends reproduce exactly.  No wall-clock, no global randomness — the same
seed therefore produces bit-identical reports under naive and compiled
scheduling, which ``bench_serving.py`` asserts.

The generator advances the simulation itself, alternating two safe waits:

* a **bounded run** (``sim.run(n)`` with no predicate) to reach the next
  known arrival cycle — exact under event-skipping, and never a cycle-number
  predicate (those can be skipped over);
* a **state-predicate wait** when no arrival is scheduled: one run until a
  settlement puts an arrival on the host heap (think time, a retry backoff)
  or nothing is outstanding.  Settlements that re-issue at once do so from
  inside the runtime server's poll tick, so they do not end the wait.

Rejection semantics mirror real load generators: open-loop arrivals that are
rejected are *lost* (the client does not retry), while closed-loop streams
retry retryable rejections (``rate_limited``/``queue_full``) after a backoff
and drop the request otherwise.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.serve.errors import AdmissionRejected, ServeError
from repro.serve.service import AcceleratorService
from repro.serve.tenant import ServeTicket, TenantConfig
from repro.sim import DeadlockError

#: A tenant's traffic mix: ``(kernel, fields, weight)`` entries.
MixEntry = Tuple[str, Dict[str, int], int]


class LoadBudgetExceeded(ServeError):
    """The load run hit its cycle budget with work still outstanding."""


@dataclass(frozen=True)
class OpenLoop:
    """Arrivals at seeded exponential interarrival gaps, fire-and-forget."""

    mean_gap_cycles: int
    n_requests: int


@dataclass(frozen=True)
class ClosedLoop:
    """``concurrency`` request streams, each issuing on completion."""

    concurrency: int
    n_requests: int
    #: Think time between a settlement and the stream's next request.
    think_cycles: int = 0
    #: Backoff before retrying a retryable rejection.
    retry_backoff_cycles: int = 64
    #: Retries per logical request before it is dropped.
    max_retries: int = 100


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's quota envelope plus its offered traffic."""

    tenant: TenantConfig
    mix: Sequence[MixEntry]
    arrivals: Union[OpenLoop, ClosedLoop]


def _derive_seed(seed: int, name: str, role: str) -> int:
    """Stable 64-bit stream seed (never ``hash()`` — that salts per-process)."""
    digest = hashlib.sha256(f"{seed}:{name}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def percentile(sorted_values: Sequence[int], q: float) -> int:
    """Nearest-rank percentile of pre-sorted integer samples (0 if empty)."""
    if not sorted_values:
        return 0
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(k, len(sorted_values) - 1)]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index; 1.0 for an empty/all-zero population."""
    total = sum(values)
    sq = sum(v * v for v in values)
    if not values or sq == 0:
        return 1.0
    return (total * total) / (len(values) * sq)


class _Runner:
    """Per-tenant driver state: arrival schedule, retries, tickets."""

    def __init__(self, load: TenantLoad, seed: int) -> None:
        self.load = load
        self.name = load.tenant.name
        self.closed = isinstance(load.arrivals, ClosedLoop)
        self.n = load.arrivals.n_requests
        self.issued = 0  # open-loop arrivals fired (admitted or lost)
        self.admitted = 0
        self.dropped = 0  # closed-loop logical requests given up on
        self.settled = 0
        self.tickets: List[ServeTicket] = []
        self._mix_rng = random.Random(_derive_seed(seed, self.name, "mix"))
        self._retries: Deque[Tuple[str, Dict[str, int], int]] = deque()
        self.arrival_cycles: List[int] = []
        if not self.closed:
            gap_rng = random.Random(_derive_seed(seed, self.name, "gaps"))
            mean = max(1, self.load.arrivals.mean_gap_cycles)
            at = 0
            for _ in range(self.n):
                at += max(1, int(gap_rng.expovariate(1.0 / mean)))
                self.arrival_cycles.append(at)

    def next_request(self) -> Tuple[str, Dict[str, int], int]:
        """Next ``(kernel, fields, attempts)`` — a queued retry or a fresh draw."""
        if self._retries:
            return self._retries.popleft()
        entries = list(self.load.mix)
        weights = [w for _, _, w in entries]
        kernel, fields, _ = self._mix_rng.choices(entries, weights=weights)[0]
        return kernel, dict(fields), 0

    def queue_retry(self, kernel: str, fields: Dict[str, int], attempts: int) -> None:
        self._retries.append((kernel, fields, attempts))

    @property
    def exhausted(self) -> bool:
        if self.closed:
            return self.admitted + self.dropped >= self.n
        return self.issued >= self.n


@dataclass
class ServingReport:
    """Per-tenant SLO metrics of one load run; all cycle-derived."""

    start_cycle: int
    end_cycle: int
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    fairness_jain: float = 1.0
    totals: Dict[str, Any] = field(default_factory=dict)

    @property
    def elapsed_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "elapsed_cycles": self.elapsed_cycles,
            "fairness_jain": self.fairness_jain,
            "tenants": {k: dict(self.tenants[k]) for k in sorted(self.tenants)},
            "totals": dict(self.totals),
        }

    def render(self) -> str:
        lines = [
            f"serving report: {self.totals.get('completed', 0)} completed / "
            f"{self.totals.get('submitted', 0)} submitted over "
            f"{self.elapsed_cycles} cycles, Jain fairness "
            f"{self.fairness_jain:.3f}"
        ]
        header = (
            f"  {'tenant':<10} {'ok':>5} {'fail':>5} {'rej':>5} "
            f"{'p50':>7} {'p99':>7} {'p999':>7} {'goodput':>9} {'rej_rate':>8}"
        )
        lines.append(header)
        for name in sorted(self.tenants):
            t = self.tenants[name]
            lines.append(
                f"  {name:<10} {t['completed']:>5} {t['failed']:>5} "
                f"{t['rejected']:>5} {t['p50']:>7} {t['p99']:>7} "
                f"{t['p999']:>7} {t['goodput']:>9.3f} "
                f"{t['rejection_rate']:>8.3f}"
            )
        return "\n".join(lines)


class LoadGenerator:
    """Drives seeded tenant mixes through an :class:`AcceleratorService`."""

    def __init__(
        self,
        service: AcceleratorService,
        loads: Sequence[TenantLoad],
        seed: int = 0,
    ) -> None:
        self.service = service
        self.seed = seed
        self._runners = [_Runner(load, seed) for load in loads]
        for runner in self._runners:
            # The runner's tenant must exist on the service; fail fast.
            service.tenant(runner.name)
        self._heap: List[Tuple[int, int, int]] = []
        self._order = 0
        #: Cycle the current completion wait's stall budget counts from.
        self._stall_from = 0

    # ------------------------------------------------------------- plumbing
    def _push(self, cycle: int, runner_idx: int) -> None:
        self._order += 1
        heapq.heappush(self._heap, (cycle, self._order, runner_idx))

    def _issue(self, idx: int, cycle: int) -> None:
        runner = self._runners[idx]
        kernel, fields, attempts = runner.next_request()
        if not runner.closed:
            runner.issued += 1
        try:
            ticket = self.service.submit(runner.name, kernel, **fields)
        except AdmissionRejected as exc:
            self._on_rejection(idx, cycle, kernel, fields, attempts, exc)
            return
        runner.admitted += 1
        runner.tickets.append(ticket)
        ticket.on_settle = lambda t, i=idx: self._on_settle(i, t)

    def _on_rejection(
        self,
        idx: int,
        cycle: int,
        kernel: str,
        fields: Dict[str, int],
        attempts: int,
        exc: AdmissionRejected,
    ) -> None:
        runner = self._runners[idx]
        if not runner.closed:
            return  # open loop: a rejected arrival is lost
        arrivals = runner.load.arrivals
        retryable = exc.reason in ("rate_limited", "queue_full")
        if retryable and attempts < arrivals.max_retries:
            runner.queue_retry(kernel, fields, attempts + 1)
            self._push(cycle + max(1, arrivals.retry_backoff_cycles), idx)
            return
        runner.dropped += 1
        if not runner.exhausted:
            self._push(cycle, idx)  # the stream slot moves on immediately

    def _on_settle(self, idx: int, ticket: ServeTicket) -> None:
        runner = self._runners[idx]
        runner.settled += 1
        self._stall_from = ticket.done_cycle + 1
        if runner.closed and not runner.exhausted:
            think = runner.load.arrivals.think_cycles
            if think <= 0:
                self._issue(idx, ticket.done_cycle)
            else:
                self._push(ticket.done_cycle + think, idx)

    # ------------------------------------------------------------------ run
    def run(
        self, max_cycles: int = 2_000_000, stall_budget: int = 400_000
    ) -> ServingReport:
        """Inject every load, drain the service, and report SLO metrics."""
        sim = self.service.design.sim
        start = sim.cycle
        deadline = start + max_cycles
        for idx, runner in enumerate(self._runners):
            if runner.closed:
                for _ in range(runner.load.arrivals.concurrency):
                    if not runner.exhausted:
                        self._push(start, idx)
            else:
                for at in runner.arrival_cycles:
                    self._push(start + at, idx)
        while True:
            cycle = sim.cycle
            if cycle > deadline:
                raise LoadBudgetExceeded(
                    f"load run past its {max_cycles}-cycle budget with "
                    f"{len(self._heap)} arrival(s) pending"
                )
            while self._heap and self._heap[0][0] <= cycle:
                _, _, idx = heapq.heappop(self._heap)
                self._issue(idx, cycle)
            if self._heap:
                target = min(self._heap[0][0], deadline + 1)
                if target > cycle:
                    sim.run(target - cycle)  # bounded advance, no predicate
                continue
            if self.service.drained():
                break
            self._await_event(sim, deadline, stall_budget)
        return self._report(start, sim.cycle)

    def _await_event(self, sim, deadline: int, stall_budget: int) -> None:
        """Run until an arrival is on the host heap or nothing is outstanding.

        Both are model-state predicates (the heap only grows from a settle
        callback).  ``stall_budget`` keeps its per-settlement meaning: each
        settlement restarts it, and a genuinely wedged service surfaces the
        kernel's typed :class:`DeadlockError` exactly ``stall_budget`` cycles
        after the last one.  A run's budget is fixed at entry, so one that
        expires after a settlement moved the horizon is simply resumed.
        """
        heap, drained = self._heap, self.service.drained
        self._stall_from = sim.cycle
        while sim.cycle <= deadline:
            stop = min(self._stall_from + stall_budget, deadline + 1)
            try:
                sim.run(stop - sim.cycle, until=lambda: bool(heap) or drained())
                return
            except DeadlockError:
                if sim.cycle < stop or stop == self._stall_from + stall_budget:
                    raise  # not a budget expiry, or nothing settled: a stall

    # --------------------------------------------------------------- report
    def _report(self, start: int, end: int) -> ServingReport:
        elapsed = max(1, end - start)
        report = ServingReport(start_cycle=start, end_cycle=end)
        goodputs: List[float] = []
        tot: Dict[str, Any] = {
            "submitted": 0, "admitted": 0, "rejected": 0,
            "completed": 0, "failed": 0,
        }
        all_latencies: List[int] = []
        for runner in self._runners:
            state = self.service.tenant(runner.name)
            latencies = sorted(
                t.latency for t in runner.tickets if t.outcome == "ok"
            )
            waits = sorted(
                t.queue_wait for t in runner.tickets
                if t.queue_wait is not None
            )
            completed = len(latencies)
            failed = sum(1 for t in runner.tickets if t.outcome == "failed")
            submitted = int(state.submitted)
            rejected = state.rejected_total
            goodput = completed * 1000.0 / elapsed
            goodputs.append(goodput)
            all_latencies.extend(latencies)
            report.tenants[runner.name] = {
                "submitted": submitted,
                "admitted": int(state.admitted),
                "rejected": rejected,
                "rejected_by_reason": {
                    r: int(c) for r, c in state.rejected.items() if int(c)
                },
                "dropped": runner.dropped,
                "completed": completed,
                "failed": failed,
                "p50": percentile(latencies, 0.50),
                "p99": percentile(latencies, 0.99),
                "p999": percentile(latencies, 0.999),
                "mean_latency": (
                    sum(latencies) / completed if completed else 0.0
                ),
                "mean_queue_wait": (
                    sum(waits) / len(waits) if waits else 0.0
                ),
                "goodput": goodput,
                "rejection_rate": rejected / submitted if submitted else 0.0,
            }
            tot["submitted"] += submitted
            tot["admitted"] += int(state.admitted)
            tot["rejected"] += rejected
            tot["completed"] += completed
            tot["failed"] += failed
        all_latencies.sort()
        tot["p50"] = percentile(all_latencies, 0.50)
        tot["p99"] = percentile(all_latencies, 0.99)
        tot["p999"] = percentile(all_latencies, 0.999)
        tot["goodput"] = tot["completed"] * 1000.0 / elapsed
        report.totals = tot
        report.fairness_jain = jain_index(goodputs)
        return report
