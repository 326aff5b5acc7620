"""The FPGA management runtime server (paper Section II-C1).

A userspace server arbitrates fair access to the command/response bus: every
host command acquires the server lock, is serialised through the MMIO
interface one 32-bit word at a time, and the server polls the MMIO response
registers while commands are in flight.  All three costs are platform
parameters, and their serialisation is what produces the ideal-vs-measured
gap for low-latency kernels in the paper's Figure 6 ("low-latency operations
have much higher contention for the runtime server lock").

The server also hosts the *command watchdog* (repro.faults): when a
:class:`WatchdogConfig` with a deadline is installed, every in-flight command
carries a deadline; commands past it are timed out, retried with capped
exponential backoff when idempotent, and cores that keep missing deadlines
are quarantined so the host can degrade gracefully instead of hanging.  With
the default (disabled) config the watchdog adds no behaviour and no cost.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.command.rocc import RoccInstruction, RoccResponse
from repro.command.router import MmioFrontend
from repro.faults.errors import CommandTimeout
from repro.obs.registry import Histogram
from repro.platforms.base import HostInterface
from repro.sim import NEVER, Component


@dataclass
class WatchdogConfig:
    """Deadline/retry/quarantine policy for in-flight commands.

    ``timeout_cycles=None`` (the default) disables the watchdog entirely —
    the server then behaves exactly as before this layer existed.
    """

    #: Cycles a dispatched command may stay un-responded before timing out.
    timeout_cycles: Optional[int] = None
    #: Retries per command (beyond the first attempt) before giving up.
    max_retries: int = 3
    #: First retry waits this long; each further retry doubles it.
    backoff_base_cycles: int = 256
    #: Exponential backoff is capped here.
    backoff_cap_cycles: int = 16384
    #: Timeouts a core may accumulate before it is quarantined.
    quarantine_strikes: int = 3

    @property
    def enabled(self) -> bool:
        return self.timeout_cycles is not None and self.timeout_cycles > 0

    def backoff_cycles(self, attempts: int) -> int:
        """Backoff before attempt ``attempts + 1`` (attempts >= 1)."""
        return min(self.backoff_base_cycles << (attempts - 1), self.backoff_cap_cycles)


@dataclass
class CommandContext:
    """Watchdog-facing identity of one logical host command.

    The host handle creates one per command it wants protected and threads it
    through :meth:`RuntimeServer.submit`.  ``resubmit`` re-issues the command
    (possibly onto a different core — the handle owns routing); ``on_error``
    receives the terminal typed error instead of it escaping into the
    simulation loop.
    """

    key: Tuple[int, int]
    label: str = ""
    retryable: bool = True
    attempts: int = 1
    resubmit: Optional[Callable[[], None]] = None
    on_error: Optional[Callable[[Exception], None]] = None
    #: Receives the command's response; set once by the issuing handle.
    on_response: Optional[Callable[[RoccResponse], None]] = None
    #: Command uid assigned by the issuing handle (0 = unregistered).  A
    #: snapshot holds a context as a reference to this uid in the handle's
    #: call table; ``attempts`` and ``key`` travel with the call's outcome.
    uid: int = 0


@dataclass
class _Waiter:
    """One in-flight command awaiting its response."""

    ctx: CommandContext
    span_id: int = 0
    deadline: float = NEVER


@dataclass
class PendingCommand:
    words: List[int]
    key: Tuple[int, int]  # (system_id, core_id)
    enqueue_cycle: int = 0
    client: int = 0
    span_id: int = 0  # observability root span (0 = untracked)
    #: The command's context; only the completing chunk of a command that
    #: expects a response carries one.
    ctx: Optional[CommandContext] = None
    #: Per-client submission sequence number (FIFO-per-client guarantee).
    seq: int = 0
    #: Batch id from the serving layer's scheduler; consecutive commands of
    #: one (client, batch) pair skip the lock re-acquisition cost.
    batch: Optional[int] = None


class RuntimeServer(Component):
    """Serialises host commands onto the MMIO frontend and polls responses."""

    # The queues, lock, poll grid and watchdog tables, then the metrics.
    _state = (
        "_queues", "_client_rr", "_rr_pos", "_client_seq", "_dispatched_seq", "_last_batch",
        "_current", "_words_left", "_next_word_cycle", "_lock_until", "_next_poll",
        "_resp_words", "_waiters", "_retry_heap", "_retry_seq", "_strikes", "quarantined",
        "client_lock_waits",
        "commands_sent", "responses_received", "lock_wait_cycles", "busy_cycles",
        "lock_wait_hist", "timeouts", "retries", "quarantines", "late_responses",
        "rerouted", "batch_lock_skips", "batch_cycles_saved", "fifo_violations",
    )

    def __init__(
        self,
        mmio: MmioFrontend,
        host: HostInterface,
        name: str = "server",
        spans=None,
        watchdog: Optional[WatchdogConfig] = None,
    ) -> None:
        super().__init__(name)
        self.mmio = mmio
        self.host = host
        # Optional CommandSpanTracker: assigns IDs to host commands here and
        # follows them through dispatch, delivery, execution, and response.
        self.spans = spans
        self.watchdog = watchdog if watchdog is not None else WatchdogConfig()
        # Fair arbitration: one command queue per client process, served
        # round-robin (the "arbitrating fair access to the command-response
        # bus" of Section II-C1).  Within one client, dispatch order is a
        # *guaranteed* FIFO: each submission is stamped with a per-client
        # sequence number and `_dispatch` checks monotonicity on every pop
        # (`fifo_violations` must stay 0 — tests assert it).
        self._queues: Dict[int, Deque[PendingCommand]] = {}
        self._client_rr: List[int] = []
        self._rr_pos = 0
        self._client_seq: Dict[int, int] = {}
        self._dispatched_seq: Dict[int, int] = {}
        # (client, batch) of the last fully dispatched batched command; the
        # next command continues the batch iff it matches.
        self._last_batch: Optional[Tuple[int, int]] = None
        self._current: Optional[PendingCommand] = None
        self._words_left: List[int] = []
        self._next_word_cycle = 0
        self._lock_until = 0
        self._next_poll = 0
        self._resp_words: List[int] = []
        # key -> FIFO of in-flight waiters (per-core responses are ordered).
        self._waiters: Dict[Tuple[int, int], Deque[_Waiter]] = {}
        # A client with a queued command and a core with a waiter, as last
        # found: they make "anything queued / anything waiting" one lookup
        # while they still hold.  Checked against the tables on every use,
        # so they are no state of their own (``RUN_CACHES``).
        self._queued_client: Optional[int] = None
        self._waiting_key: Optional[Tuple[int, int]] = None
        # Matured-retry min-heap of (ready_cycle, seq, ctx).
        self._retry_heap: List[Tuple[int, int, CommandContext]] = []
        self._retry_seq = 0
        self._strikes: Dict[Tuple[int, int], int] = {}
        #: Cores the watchdog has given up on; the handle reroutes around them.
        self.quarantined: Set[Tuple[int, int]] = set()
        # Statistics for the contention analysis.
        self.commands_sent = 0
        self.responses_received = 0
        self.lock_wait_cycles = 0
        self.busy_cycles = 0
        self.lock_wait_hist = Histogram()
        # Watchdog statistics: always published (zero when disabled) so
        # metric dumps have a config-independent key set.
        self.timeouts = 0
        self.retries = 0
        self.quarantines = 0
        self.late_responses = 0
        self.rerouted = 0  # incremented by the handle's router
        # Serving-layer batching: lock acquisitions skipped because the
        # command continued the previous command's batch, and the cycles
        # that amortisation saved.
        self.batch_lock_skips = 0
        self.batch_cycles_saved = 0
        self.fifo_violations = 0
        # Per-client lock-wait samples (enqueue -> dispatch), for fairness
        # analysis of the round-robin arbiter.
        self.client_lock_waits: Dict[int, List[int]] = {}

    @property
    def metric_path(self) -> str:
        return "runtime/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        for name in ("commands_sent", "responses_received", "lock_wait_cycles", "busy_cycles"):
            scope.bind(name, lambda name=name: getattr(self, name))
        scope.bind("lock_wait", lambda: self.lock_wait_hist.dump_value())
        for name in ("batch_lock_skips", "batch_cycles_saved", "fifo_violations"):
            scope.bind(name, lambda name=name: getattr(self, name))
        scope.bind("in_flight", lambda: self.in_flight)
        wd = scope.scope("watchdog")
        for name in ("timeouts", "retries", "quarantines", "late_responses", "rerouted"):
            wd.bind(name, lambda name=name: getattr(self, name))
        wd.bind("pending_retries", lambda: len(self._retry_heap))
        wd.bind("quarantined_cores", lambda: len(self.quarantined))
        if self.spans is not None:
            self.spans.register_metrics(scope)

    # ------------------------------------------------------------- host API
    def submit(
        self,
        inst: RoccInstruction,
        ctx: Optional[CommandContext],
        cycle_hint: int = 0,
        client: int = 0,
        tenant: str = "",
        batch: Optional[int] = None,
    ) -> None:
        """Queue one command word group.  ``ctx`` is the command's context
        when this is the completing chunk of a command that expects a
        response (its ``on_response`` receives it), else ``None``."""
        cmd = PendingCommand(
            inst.encode_words(),
            (inst.system_id, inst.core_id),
            cycle_hint,
            client,
            ctx=ctx,
            batch=batch,
        )
        self._client_seq[client] = cmd.seq = self._client_seq.get(client, 0) + 1
        # Only the completing chunk of a multi-chunk command carries the
        # context; that chunk is the one the span follows.
        if self.spans is not None and ctx is not None:
            cmd.span_id = self.spans.command_submitted(
                cycle_hint, cmd.key, client, ctx.label or f"io{inst.funct7}",
                tenant=tenant,
            )
        if client not in self._queues:
            self._queues[client] = deque()
            self._client_rr.append(client)
        # With a command queued or dispatching the hint already walks the
        # server through every queued command; only a submission that finds
        # it with neither can move its next event earlier.  The caller may be
        # another component's tick mid-run (a serving-layer pump, a watchdog
        # retry), so ask for the wake rather than rely on a run entry.
        if self._current is None and not self._has_queued():
            self.request_wake()
        self._queues[client].append(cmd)

    def _has_queued(self) -> bool:
        """Whether any client has a command queued."""
        if not self._queues.get(self._queued_client):
            self._queued_client = _first_busy(self._queues)
        return self._queued_client is not None

    def _has_waiters(self) -> bool:
        """Whether any dispatched command awaits its response."""
        if not self._waiters.get(self._waiting_key):
            self._waiting_key = _first_busy(self._waiters)
        return self._waiting_key is not None

    def _pop_next(self) -> Optional[PendingCommand]:
        n = len(self._client_rr)
        for k in range(n):
            client = self._client_rr[(self._rr_pos + k) % n]
            queue = self._queues[client]
            if queue:
                self._rr_pos = (self._rr_pos + k + 1) % n
                return queue.popleft()
        return None

    @property
    def in_flight(self) -> int:
        queued = sum(len(q) for q in self._queues.values())
        return (
            queued
            + (1 if self._current else 0)
            + sum(len(q) for q in self._waiters.values())
            + len(self._retry_heap)
        )

    def idle(self) -> bool:
        return (
            self._current is None
            and not self._has_queued()
            and not self._has_waiters()
            and not self._retry_heap
        )

    # ------------------------------------------------------------ behaviour
    def tick(self, cycle: int) -> None:
        if self._retry_heap:
            self._service_retries(cycle)
        self._dispatch(cycle)
        self._poll(cycle)
        # Deadlines are checked after polling so a response landing exactly
        # at the deadline cycle still wins.
        if self.watchdog.enabled and self._has_waiters():
            self._check_deadlines(cycle)

    def next_event(self, cycle: int) -> float:
        """Next cycle the server acts: a word dispatch, a lock acquisition,
        a poll visit with response words to read, a matured retry, or a
        waiter deadline.  An empty poll visit only steps ``_next_poll`` along
        the grid, which :meth:`_poll` redoes in closed form, so the grid is
        named only while ``resp_words`` holds a visible word; a word that
        commits later wakes the server through :meth:`wake_edges`.  An idle
        server (no queued commands, nothing in flight, no waiters) only
        wakes on a new submission, which :meth:`submit` announces through
        ``request_wake`` — so it reports :data:`NEVER`."""
        nxt = NEVER
        if self._current is not None:
            nxt = min(nxt, max(cycle, self._next_word_cycle))
        elif self._has_queued():
            nxt = min(nxt, max(cycle, self._lock_until))
        if self._has_waiters():
            if self.mmio.resp_words.can_pop():
                nxt = min(nxt, max(cycle, self._next_poll))
            if self.watchdog.enabled:
                for waiters in self._waiters.values():
                    if waiters:
                        nxt = min(nxt, max(cycle, waiters[0].deadline))
        if self._retry_heap:
            nxt = min(nxt, max(cycle, self._retry_heap[0][0]))
        return nxt

    def wake_edges(self):
        # The server owns no channels.  Of the two it touches, only a pushed
        # response word can let a sleeping server progress: a command-word
        # push stalled on a full ``cmd_words`` keeps the dispatch hint at
        # "every cycle", so a pop there need not wake it.
        return [self.mmio.resp_words], []

    def _dispatch(self, cycle: int) -> None:
        if self._current is None and cycle >= self._lock_until:
            self._current = self._pop_next()
            if self._current is None:
                return
            cur = self._current
            last = self._dispatched_seq.get(cur.client, 0)
            if cur.seq != last + 1:
                self.fifo_violations += 1  # must never happen; tests assert 0
            self._dispatched_seq[cur.client] = cur.seq
            wait = max(0, cycle - cur.enqueue_cycle)
            self.lock_wait_cycles += wait
            self.lock_wait_hist.observe(wait)
            self.client_lock_waits.setdefault(cur.client, []).append(wait)
            self._words_left = list(cur.words)
            # Lock acquisition + per-command bookkeeping cost — skipped when
            # this command continues the immediately preceding command's
            # batch (same client, same batch id) *and* the bus never went
            # idle in between (we are dispatching the very cycle the lock
            # would have been released): the serving layer coalesces
            # compatible commands to amortise MMIO serialisation, but an
            # idle gap means the lock was genuinely dropped and must be
            # re-acquired at full cost.
            lock_cycles = self.host.command_lock_cycles
            if (
                cur.batch is not None
                and self._last_batch == (cur.client, cur.batch)
                and cycle == self._lock_until
            ):
                lock_cycles = 0
                self.batch_lock_skips += 1
                self.batch_cycles_saved += self.host.command_lock_cycles
            self._next_word_cycle = cycle + lock_cycles
            if self.spans is not None and cur.span_id:
                self.spans.dispatch_begin(cycle, cur.span_id)
        if self._current is not None and cycle >= self._next_word_cycle:
            if self._words_left and self.mmio.cmd_words.can_push():
                self.mmio.cmd_words.push(self._words_left.pop(0))
                self._next_word_cycle = cycle + self.host.mmio_word_cycles
                self.busy_cycles += self.host.mmio_word_cycles
            if not self._words_left:
                cmd = self._current
                if self.spans is not None and cmd.span_id:
                    self.spans.dispatch_end(cycle, cmd.span_id, cmd.key)
                if cmd.ctx is not None:
                    deadline: float = NEVER
                    if self.watchdog.enabled:
                        deadline = cycle + self.watchdog.timeout_cycles
                    if not self._has_waiters():
                        # Nobody was waiting, so no grid was running: the
                        # first waiter is polled for at once (this very
                        # tick) unless the last visit asked for a pause.
                        self._next_poll = max(self._next_poll, cycle)
                    self._waiters.setdefault(cmd.key, deque()).append(
                        _Waiter(cmd.ctx, cmd.span_id, deadline)
                    )
                self.commands_sent += 1
                self._last_batch = (
                    (cmd.client, cmd.batch) if cmd.batch is not None else None
                )
                self._current = None
                self._lock_until = cycle + 1

    def _poll(self, cycle: int) -> None:
        if not self._has_waiters():
            return
        behind = cycle - self._next_poll
        if behind > 0:
            # The poll grid in closed form.  The server sleeps through grid
            # points at which ``resp_words`` is empty (a committed response
            # word wakes it the cycle the word turns visible), and each such
            # visit would only have stepped ``_next_poll`` by one interval:
            # step to the first grid point >= ``cycle`` instead.  Ticked
            # every cycle (``naive``) the server is never behind.
            period = self.host.response_poll_cycles or 1
            self._next_poll += -(-behind // period) * period
        if cycle < self._next_poll:
            return
        # One poll visit reads as many response words as are ready (a burst
        # of MMIO reads), then sleeps for the polling interval.
        progressed = False
        while self.mmio.resp_words.can_pop():
            self._resp_words.append(self.mmio.resp_words.pop())
            progressed = True
            if len(self._resp_words) == 4:
                resp = RoccResponse.decode_words(self._resp_words)
                self._resp_words.clear()
                key = (resp.system_id, resp.core_id)
                waiters = self._waiters.get(key)
                if waiters:
                    waiter = waiters.popleft()
                    if self.spans is not None and waiter.span_id:
                        self.spans.command_completed(cycle, waiter.span_id)
                    if self._strikes:
                        self._strikes.pop(key, None)  # core proved healthy
                    waiter.ctx.on_response(resp)
                else:
                    # A command we already timed out answered after all.
                    self.late_responses += 1
                self.responses_received += 1
        if progressed:
            self._next_poll = cycle + self.host.mmio_word_cycles
        else:
            self._next_poll = cycle + self.host.response_poll_cycles

    # ------------------------------------------------------------- watchdog
    def _service_retries(self, cycle: int) -> None:
        while self._retry_heap and self._retry_heap[0][0] <= cycle:
            _, _, ctx = heapq.heappop(self._retry_heap)
            self.retries += 1
            ctx.attempts += 1
            try:
                ctx.resubmit()
            except Exception as exc:  # e.g. CoreQuarantined from rerouting
                if ctx.on_error is not None:
                    ctx.on_error(exc)
                else:
                    raise

    def _check_deadlines(self, cycle: int) -> None:
        for key, waiters in self._waiters.items():
            while waiters and cycle >= waiters[0].deadline:
                self._on_timeout(cycle, key, waiters.popleft())

    def _on_timeout(self, cycle: int, key: Tuple[int, int], waiter: _Waiter) -> None:
        self.timeouts += 1
        strikes = self._strikes.get(key, 0) + 1
        self._strikes[key] = strikes
        ctx = waiter.ctx
        if self.spans is not None and waiter.span_id:
            self.spans.command_completed(cycle, waiter.span_id)
        if strikes >= self.watchdog.quarantine_strikes and key not in self.quarantined:
            self.quarantined.add(key)
            self.quarantines += 1
        if (
            ctx.retryable
            and ctx.resubmit is not None
            and ctx.attempts - 1 < self.watchdog.max_retries
        ):
            self._retry_seq += 1
            heapq.heappush(
                self._retry_heap,
                (cycle + self.watchdog.backoff_cycles(ctx.attempts), self._retry_seq, ctx),
            )
            return
        err = CommandTimeout(
            f"command {ctx.label or '<untracked>'} on core {key} timed out at cycle "
            f"{cycle} after {ctx.attempts} attempt(s)",
            key=key,
            attempts=ctx.attempts,
        )
        if ctx.on_error is not None:
            ctx.on_error(err)
        else:
            raise err

    # ---------------------------------------------------------- diagnostics
    def debug_state(self):
        if self.idle():
            return None
        state: Dict[str, object] = {
            "queued": sum(len(q) for q in self._queues.values()),
            "dispatching": (
                {"core": self._current.key, "words_left": len(self._words_left)}
                if self._current is not None
                else None
            ),
            "waiting": {
                str(key): [
                    {
                        "deadline": (None if w.deadline == NEVER else int(w.deadline)),
                        "label": w.ctx.label,
                        "attempts": w.ctx.attempts,
                    }
                    for w in waiters
                ]
                for key, waiters in self._waiters.items()
                if waiters
            },
            "pending_retries": [
                {"ready": ready, "core": ctx.key, "label": ctx.label}
                for ready, _, ctx in sorted(self._retry_heap)
            ],
        }
        if self.quarantined:
            state["quarantined"] = sorted(self.quarantined)
        return state


def _first_busy(table: Dict) -> object:
    """The first key of ``table`` (client -> queue, core -> waiters) whose
    deque is non-empty, else ``None``.  Read from the table alone, never
    from a count kept beside it, so an entry added from outside the server
    (a restore, a test) is found just the same."""
    for key, items in table.items():
        if items:
            return key
    return None
