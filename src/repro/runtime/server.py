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
from repro.obs.registry import Counter, Histogram
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
    #: Command uid assigned by the issuing handle (0 = unregistered).  The
    #: snapshot layer serialises in-flight commands by uid and resolves them
    #: back to live contexts/callbacks through the handle's call registry.
    uid: int = 0


@dataclass
class _Waiter:
    """One in-flight command awaiting its response."""

    callback: Callable[[RoccResponse], None]
    span_id: int = 0
    deadline: float = NEVER
    ctx: Optional[CommandContext] = None


@dataclass
class PendingCommand:
    words: List[int]
    on_response: Optional[Callable[[RoccResponse], None]]
    key: Tuple[int, int]  # (system_id, core_id)
    enqueue_cycle: int = 0
    client: int = 0
    dispatch_start: Optional[int] = None
    dispatch_end: Optional[int] = None
    span_id: int = 0  # observability root span (0 = untracked)
    ctx: Optional[CommandContext] = None
    #: Per-client submission sequence number (FIFO-per-client guarantee).
    seq: int = 0
    #: Batch id from the serving layer's scheduler; consecutive commands of
    #: one (client, batch) pair skip the lock re-acquisition cost.
    batch: Optional[int] = None


class RuntimeServer(Component):
    """Serialises host commands onto the MMIO frontend and polls responses."""

    def __init__(
        self,
        mmio: MmioFrontend,
        host: HostInterface,
        name: str = "server",
        spans=None,
        watchdog: Optional[WatchdogConfig] = None,
        tracer=None,
    ) -> None:
        super().__init__(name)
        self.mmio = mmio
        self.host = host
        # Optional CommandSpanTracker: assigns IDs to host commands here and
        # follows them through dispatch, delivery, execution, and response.
        self.spans = spans
        self.watchdog = watchdog if watchdog is not None else WatchdogConfig()
        self.tracer = tracer
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
        # Matured-retry min-heap of (ready_cycle, seq, ctx).
        self._retry_heap: List[Tuple[int, int, CommandContext]] = []
        self._retry_seq = 0
        self._strikes: Dict[Tuple[int, int], int] = {}
        #: Cores the watchdog has given up on; the handle reroutes around them.
        self.quarantined: Set[Tuple[int, int]] = set()
        #: Host hook invoked (once per core) at quarantine time.
        self.on_quarantine: Optional[Callable[[Tuple[int, int]], None]] = None
        # Statistics for the contention analysis.  Typed metrics compare and
        # accumulate like ints, so call sites and tests read them unchanged.
        self.commands_sent = Counter()
        self.responses_received = Counter()
        self.lock_wait_cycles = Counter()
        self.busy_cycles = Counter()
        self.lock_wait_hist = Histogram()
        # Watchdog statistics: always attached (zero when disabled) so metric
        # dumps have a config-independent key set.
        self.timeouts = Counter()
        self.retries = Counter()
        self.quarantines = Counter()
        self.late_responses = Counter()
        self.rerouted = Counter()  # incremented by the handle's router
        # Serving-layer batching: lock acquisitions skipped because the
        # command continued the previous command's batch, and the cycles
        # that amortisation saved.
        self.batch_lock_skips = Counter()
        self.batch_cycles_saved = Counter()
        self.fifo_violations = Counter()
        # Per-client lock-wait samples (enqueue -> dispatch), for fairness
        # analysis of the round-robin arbiter.
        self.client_lock_waits: Dict[int, List[int]] = {}
        # uid -> {"ctx", "fut", "make_cb"}; installed by the owning
        # FpgaHandle so snapshot restore can resolve command uids back to
        # live contexts and rebuild response callbacks.
        self._host_calls: Optional[Dict[int, Dict[str, object]]] = None
        #: Snapshot-restore bookkeeping: uids the last restore could not
        #: resolve against the call registry (0 on a faithful restore).
        self._snapshot_unresolved = 0

    @property
    def metric_path(self) -> str:
        return "runtime/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        scope.attach("commands_sent", self.commands_sent)
        scope.attach("responses_received", self.responses_received)
        scope.attach("lock_wait_cycles", self.lock_wait_cycles)
        scope.attach("busy_cycles", self.busy_cycles)
        scope.attach("lock_wait", self.lock_wait_hist)
        scope.attach("batch_lock_skips", self.batch_lock_skips)
        scope.attach("batch_cycles_saved", self.batch_cycles_saved)
        scope.attach("fifo_violations", self.fifo_violations)
        scope.bind("in_flight", lambda: self.in_flight)
        wd = scope.scope("watchdog")
        wd.attach("timeouts", self.timeouts)
        wd.attach("retries", self.retries)
        wd.attach("quarantines", self.quarantines)
        wd.attach("late_responses", self.late_responses)
        wd.attach("rerouted", self.rerouted)
        wd.bind("pending_retries", lambda: len(self._retry_heap))
        wd.bind("quarantined_cores", lambda: len(self.quarantined))
        if self.spans is not None:
            self.spans.register_metrics(scope)

    # ------------------------------------------------------------- host API
    def submit(
        self,
        inst: RoccInstruction,
        on_response: Optional[Callable[[RoccResponse], None]],
        cycle_hint: int = 0,
        client: int = 0,
        label: Optional[str] = None,
        ctx: Optional[CommandContext] = None,
        tenant: str = "",
        batch: Optional[int] = None,
    ) -> None:
        cmd = PendingCommand(
            inst.encode_words(),
            on_response,
            (inst.system_id, inst.core_id),
            cycle_hint,
            client,
            ctx=ctx,
            batch=batch,
        )
        self._client_seq[client] = cmd.seq = self._client_seq.get(client, 0) + 1
        # Only the completing chunk of a multi-chunk command carries the
        # response callback; that chunk is the one the span follows.
        if self.spans is not None and on_response is not None:
            cmd.span_id = self.spans.command_submitted(
                cycle_hint, cmd.key, client, label or f"io{inst.funct7}",
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
        if self._current is None and not any(self._queues.values()):
            self.request_wake()
        self._queues[client].append(cmd)

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
            and not any(self._queues.values())
            and not any(self._waiters.values())
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
        if self.watchdog.enabled and any(self._waiters.values()):
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
        elif any(self._queues.values()):
            nxt = min(nxt, max(cycle, self._lock_until))
        if any(self._waiters.values()):
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
            cur.dispatch_start = cycle
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
                cmd.dispatch_end = cycle
                if self.spans is not None and cmd.span_id:
                    self.spans.dispatch_end(cycle, cmd.span_id, cmd.key)
                if cmd.on_response is not None:
                    deadline: float = NEVER
                    if self.watchdog.enabled:
                        deadline = cycle + self.watchdog.timeout_cycles
                    if not any(self._waiters.values()):
                        # Nobody was waiting, so no grid was running: the
                        # first waiter is polled for at once (this very
                        # tick) unless the last visit asked for a pause.
                        self._next_poll = max(self._next_poll, cycle)
                    self._waiters.setdefault(cmd.key, deque()).append(
                        _Waiter(cmd.on_response, cmd.span_id, deadline, cmd.ctx)
                    )
                self.commands_sent += 1
                self._last_batch = (
                    (cmd.client, cmd.batch) if cmd.batch is not None else None
                )
                self._current = None
                self._lock_until = cycle + 1

    def _poll(self, cycle: int) -> None:
        if not any(self._waiters.values()):
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
                    waiter.callback(resp)
                else:
                    # A command we already timed out answered after all.
                    self.late_responses += 1
                    if self.tracer is not None:
                        self.tracer.record(
                            cycle, "watchdog", "late_response", {"core": key}
                        )
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
            if self.tracer is not None:
                self.tracer.record(
                    cycle,
                    "watchdog",
                    "retry",
                    {"core": ctx.key, "label": ctx.label, "attempt": ctx.attempts},
                )
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
        label = ctx.label if ctx is not None else ""
        if self.tracer is not None:
            self.tracer.record(
                cycle,
                "watchdog",
                "timeout",
                {"core": key, "label": label, "strikes": strikes},
            )
        if self.spans is not None and waiter.span_id:
            self.spans.command_completed(cycle, waiter.span_id)
        if strikes >= self.watchdog.quarantine_strikes and key not in self.quarantined:
            self.quarantined.add(key)
            self.quarantines += 1
            if self.tracer is not None:
                self.tracer.record(cycle, "watchdog", "quarantine", {"core": key})
            if self.on_quarantine is not None:
                self.on_quarantine(key)
        if (
            ctx is not None
            and ctx.retryable
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
            f"command {label or '<untracked>'} on core {key} timed out at cycle "
            f"{cycle} after {ctx.attempts if ctx else 1} attempt(s)",
            key=key,
            attempts=ctx.attempts if ctx else 1,
        )
        if ctx is not None and ctx.on_error is not None:
            ctx.on_error(err)
        else:
            raise err

    # ------------------------------------------------------------- snapshot
    def snapshot_state(self, fr) -> Dict[str, object]:
        """Explicit freeze: response callbacks are *structure* (closures over
        the handle, the future, the routing tables) and cannot be pickled, so
        every queued/in-flight command is serialised with its context uid
        instead; restore resolves uids through the handle's call registry and
        rebuilds behaviourally identical callbacks."""
        ctxs: Dict[int, Dict[str, object]] = {}

        def note(ctx: Optional[CommandContext]) -> int:
            if ctx is None:
                return 0
            if ctx.uid:
                ctxs[ctx.uid] = {"attempts": ctx.attempts, "key": tuple(ctx.key)}
            return ctx.uid

        def freeze_cmd(cmd: PendingCommand) -> Dict[str, object]:
            return {
                "words": list(cmd.words),
                "key": tuple(cmd.key),
                "enqueue_cycle": cmd.enqueue_cycle,
                "client": cmd.client,
                "dispatch_start": cmd.dispatch_start,
                "dispatch_end": cmd.dispatch_end,
                "span_id": cmd.span_id,
                "seq": cmd.seq,
                "batch": cmd.batch,
                "ctx_uid": note(cmd.ctx),
                "has_cb": cmd.on_response is not None,
            }

        return {
            "queues": [
                (client, [freeze_cmd(c) for c in q])
                for client, q in self._queues.items()
            ],
            "client_rr": list(self._client_rr),
            "rr_pos": self._rr_pos,
            "client_seq": dict(self._client_seq),
            "dispatched_seq": dict(self._dispatched_seq),
            "last_batch": self._last_batch,
            "current": (
                freeze_cmd(self._current) if self._current is not None else None
            ),
            "words_left": list(self._words_left),
            "next_word_cycle": self._next_word_cycle,
            "lock_until": self._lock_until,
            "next_poll": self._next_poll,
            "resp_words": list(self._resp_words),
            "waiters": [
                (
                    key,
                    [
                        {
                            "span_id": w.span_id,
                            "deadline": w.deadline,
                            "ctx_uid": note(w.ctx),
                        }
                        for w in ws
                    ],
                )
                for key, ws in self._waiters.items()
            ],
            "retry_heap": [
                (ready, rseq, note(ctx)) for ready, rseq, ctx in self._retry_heap
            ],
            "retry_seq": self._retry_seq,
            "strikes": dict(self._strikes),
            "quarantined": sorted(self.quarantined),
            "client_lock_waits": {
                client: list(v) for client, v in self.client_lock_waits.items()
            },
            "ctxs": ctxs,
        }

    def restore_state(self, state: Dict[str, object], th) -> None:
        calls = self._host_calls if self._host_calls is not None else {}
        unresolved = 0

        def ctx_for(uid: int) -> Optional[CommandContext]:
            nonlocal unresolved
            if not uid:
                return None
            rec = calls.get(uid)
            if rec is None:
                unresolved += 1
                return None
            return rec["ctx"]

        def cb_for(uid: int) -> Callable[[RoccResponse], None]:
            nonlocal unresolved
            rec = calls.get(uid) if uid else None
            if rec is None:
                unresolved += 1
                return lambda resp: None
            return rec["make_cb"]()

        for uid, st in state["ctxs"].items():
            rec = calls.get(uid)
            if rec is None:
                unresolved += 1
                continue
            ctx = rec["ctx"]
            ctx.attempts = st["attempts"]
            ctx.key = tuple(st["key"])

        def thaw_cmd(d: Dict[str, object]) -> PendingCommand:
            return PendingCommand(
                list(d["words"]),
                cb_for(d["ctx_uid"]) if d["has_cb"] else None,
                tuple(d["key"]),
                d["enqueue_cycle"],
                d["client"],
                d["dispatch_start"],
                d["dispatch_end"],
                d["span_id"],
                ctx_for(d["ctx_uid"]),
                d["seq"],
                d["batch"],
            )

        self._queues = {
            client: deque(thaw_cmd(d) for d in cmds)
            for client, cmds in state["queues"]
        }
        self._client_rr = list(state["client_rr"])
        self._rr_pos = state["rr_pos"]
        self._client_seq = dict(state["client_seq"])
        self._dispatched_seq = dict(state["dispatched_seq"])
        lb = state["last_batch"]
        self._last_batch = tuple(lb) if lb is not None else None
        cur = state["current"]
        self._current = thaw_cmd(cur) if cur is not None else None
        self._words_left = list(state["words_left"])
        self._next_word_cycle = state["next_word_cycle"]
        self._lock_until = state["lock_until"]
        self._next_poll = state["next_poll"]
        self._resp_words = list(state["resp_words"])
        self._waiters = {
            tuple(key): deque(
                _Waiter(
                    cb_for(w["ctx_uid"]),
                    w["span_id"],
                    w["deadline"],
                    ctx_for(w["ctx_uid"]),
                )
                for w in ws
            )
            for key, ws in state["waiters"]
        }
        # A retry without a resolvable context cannot be re-issued; drop it
        # (counted in _snapshot_unresolved) rather than crash the restore.
        heap = []
        for ready, rseq, uid in state["retry_heap"]:
            ctx = ctx_for(uid)
            if ctx is not None:
                heap.append((ready, rseq, ctx))
        heapq.heapify(heap)
        self._retry_heap = heap
        self._retry_seq = state["retry_seq"]
        self._strikes = {tuple(k): v for k, v in state["strikes"].items()}
        self.quarantined.clear()
        self.quarantined.update(tuple(k) for k in state["quarantined"])
        self.client_lock_waits.clear()
        self.client_lock_waits.update(
            {client: list(v) for client, v in state["client_lock_waits"].items()}
        )
        self._snapshot_unresolved = unresolved

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
                        "label": w.ctx.label if w.ctx else "",
                        "attempts": w.ctx.attempts if w.ctx else 1,
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
