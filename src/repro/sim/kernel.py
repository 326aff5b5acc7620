"""Deterministic cycle-level simulation kernel.

The kernel models synchronous hardware as a set of :class:`Component` objects
exchanging tokens over registered :class:`ChannelQueue` channels.  Every
channel behaves like a FIFO whose occupancy is sampled at the start of the
cycle: pushes performed during a cycle become visible at the next cycle, and
pops performed during a cycle do not free space until the next cycle.  This
makes simulation results independent of the order in which components are
ticked, which is the property that lets us compose large systems without
worrying about evaluation order (the same property latency-insensitive
ready/valid design gives real hardware).

Four scheduling modes are supported, all cycle- and statistic-identical:

* ``"naive"`` — tick every component and commit every channel each cycle.
* ``"fast_forward"`` — naive stepping, plus whole-design jumps over windows
  where every channel is empty and every component publishes a
  :meth:`Component.next_event` hint.
* ``"selective"`` — per-component event-driven scheduling: a component is
  ticked only when one of its wake channels saw a push or pop, when its
  ``next_event`` hint arrives, or when it requested a wake through
  :meth:`Component.request_wake`.  Channel commits are sparse (only dirty
  channels commit) with lazy occupancy crediting, so per-channel statistics
  stay bit-identical to naive stepping.
* ``"compiled"`` — the selective schedule driven by a compiled tick program
  (:mod:`repro.sim.compiled`): at the first ``run()`` the component graph is
  specialised into closures with channel endpoints pre-resolved, contiguous
  always-co-woken chains are fused into single scheduling slots, and channel
  commits drain through flat per-channel subscriber arrays.  Identical
  cycles, channel statistics and stable metrics; only the wall clock and the
  volatile tick accounting differ.
"""

from __future__ import annotations

import time
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Generic, Iterable, List, Optional, Set, Tuple, TypeVar

T = TypeVar("T")

#: Sentinel a :meth:`Component.next_event` may return meaning "I have no
#: self-scheduled future work; only new channel traffic can wake me".
NEVER = float("inf")

#: Valid ``Simulator(scheduling=...)`` values.
SCHEDULING_MODES = ("naive", "fast_forward", "selective", "compiled")

#: What ``BeethovenBuild`` and ``build_memory_testbench`` hand out when the
#: caller names no schedule.  ``Simulator()`` itself stays ``"naive"``.
DEFAULT_SCHEDULING = "compiled"


class SimulationError(RuntimeError):
    """Raised for illegal channel usage or a wedged simulation."""


class DeadlockError(SimulationError):
    """A ``run()`` budget expired with its predicate still pending.

    Subclasses :class:`SimulationError` so existing ``except`` clauses keep
    working, but additionally carries ``dump`` — the structured state
    snapshot from :meth:`Simulator.state_dump` (channel occupancies,
    component debug states, wake-heap contents) taken at the moment the
    budget ran out.  ``repro.sim.trace.render_deadlock_report`` renders it.
    """

    def __init__(self, message: str, dump: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.dump = dump if dump is not None else {}


class PartitionSyncTimeout(DeadlockError):
    """A distributed partition worker missed its slice barrier.

    Raised by :class:`repro.dist.DistSimulator` when a worker process dies,
    aborts with an error, or fails to reach the exchange barrier within the
    configured wall-clock budget.  Subclasses :class:`DeadlockError` so the
    runtime's existing watchdog/deadlock handling (``ResponseHandle.get``,
    chaos classification) sees a typed, catchable stall instead of a hung
    exchange loop.  ``dump`` carries the supervisor partition's
    ``state_dump`` plus whatever the stalled partition could provide
    (its own ``state_dump`` on a clean abort, stderr tail / exit code on a
    crash) under ``dump["partitions"]``; ``partition`` is the id of the
    partition that missed the barrier.
    """

    def __init__(
        self,
        message: str,
        dump: Optional[Dict[str, Any]] = None,
        partition: Optional[int] = None,
    ) -> None:
        super().__init__(message, dump)
        self.partition = partition


class ChannelQueue(Generic[T]):
    """A registered FIFO channel with start-of-cycle visibility semantics.

    ``can_push``/``push`` are the producer interface and ``can_pop``/``peek``/
    ``pop`` the consumer interface.  Capacity admission uses the occupancy at
    the start of the cycle plus anything staged this cycle, so a full queue
    does not accept a push in the same cycle one of its items is popped.
    """

    # Slotted: channels are the hottest objects in the kernel (every guard in
    # every tick probes one), and fixed-offset attribute access measurably
    # beats dict lookup in both the selective and compiled hot loops.
    __slots__ = (
        "capacity",
        "name",
        "_items",
        "_staged",
        "_pop_count",
        "total_pushed",
        "total_popped",
        "_occ",
        "_obs",
        "_sink",
        "_dirty",
        "_anchor",
        "_sim",
        "_push_subs",
        "_pop_subs",
    )

    def __init__(self, capacity: int = 2, name: str = "chan") -> None:
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: List[T] = []
        self._staged: List[T] = []
        self._pop_count = 0
        # Statistics, useful for NoC link utilisation reporting.  ``_occ`` and
        # ``_obs`` are raw: read them through the exact properties below.
        self.total_pushed = 0
        self.total_popped = 0
        self._occ = 0
        self._obs = 0
        # Selective-scheduling hooks, installed by Simulator.register_channel:
        # ``_sink`` is the simulator's dirty list (None outside selective and
        # compiled modes), ``_dirty`` marks membership in it, ``_sim`` is the
        # simulator whose clock elided observations are credited against and
        # ``_anchor`` the registration offset that makes the credit exact.
        self._sink: Optional[List["ChannelQueue[Any]"]] = None
        self._dirty = False
        self._anchor = 0
        self._sim: Optional["Simulator"] = None
        # Compiled-scheduling subscriber arrays, installed by CompiledProgram:
        # the scheduling slots woken when this channel commits a push / a pop.
        self._push_subs: Tuple[int, ...] = ()
        self._pop_subs: Tuple[int, ...] = ()

    # -- producer side ----------------------------------------------------
    def can_push(self, n: int = 1) -> bool:
        return len(self._items) + len(self._staged) + n <= self.capacity

    def push(self, item: T) -> None:
        staged = self._staged
        if len(self._items) + len(staged) >= self.capacity:
            raise SimulationError(f"push to full channel {self.name!r}")
        staged.append(item)
        self.total_pushed += 1
        if not self._dirty and self._sink is not None:
            self._dirty = True
            self._sink.append(self)

    # -- consumer side -----------------------------------------------------
    def can_pop(self) -> bool:
        return self._pop_count < len(self._items)

    def peek(self, offset: int = 0) -> T:
        # The visible window is [_pop_count, len(_items)): items popped this
        # cycle are already spoken for, items staged this cycle are not yet
        # visible.  A negative offset would reach back into staged pops, so
        # peek enforces the same window ``__len__``/``can_pop`` advertise.
        if offset < 0 or offset >= len(self):
            raise SimulationError(f"peek outside visible window of channel {self.name!r}")
        return self._items[self._pop_count + offset]

    def pop(self) -> T:
        n = self._pop_count
        if n >= len(self._items):
            raise SimulationError(f"pop from empty channel {self.name!r}")
        item = self._items[n]
        self._pop_count = n + 1
        self.total_popped += 1
        if not self._dirty and self._sink is not None:
            self._dirty = True
            self._sink.append(self)
        return item

    # -- kernel interface ----------------------------------------------------
    def commit(self) -> None:
        """Apply this cycle's pops and pushes; called once per cycle."""
        self._occ += len(self._items)
        self._obs += 1
        if self._pop_count:
            del self._items[: self._pop_count]
            self._pop_count = 0
        if self._staged:
            self._items.extend(self._staged)
            self._staged.clear()

    def credit_idle_cycles(self, n: int) -> None:
        """Account ``n`` elided commits during a fast-forward.

        Skipped cycles carry no staged traffic, so each elided commit would
        have observed the current occupancy unchanged; crediting them keeps
        ``mean_occupancy`` (and every cycle-normalised statistic built on
        ``cycles_observed``) exactly equal to a naively stepped run.
        """
        self._occ += len(self._items) * n
        self._obs += n

    def sync_observations(self, cycle: int) -> None:
        """Credit every observation elided since the last commit/sync.

        Under sparse commit a channel is only committed on cycles it saw a
        push or pop; its occupancy was constant in between, so the elided
        commits are reconstructed exactly: at ``cycle`` the channel should
        have been observed ``cycle - _anchor`` times in total.
        """
        lag = cycle - self._anchor - self._obs
        if lag > 0:
            self._occ += len(self._items) * lag
            self._obs += lag

    @property
    def cycles_observed(self) -> int:
        """Commits a naive run would have made by now, exact at any time
        (mid-tick too): elided ones are counted against ``_sim``'s clock."""
        seen = self._sim.cycle - self._anchor if self._sim is not None else 0
        return seen if seen > self._obs else self._obs

    @property
    def occupancy_accum(self) -> int:
        """Occupancy integral; an elided commit saw the last real one's."""
        return self._occ + len(self._items) * (self.cycles_observed - self._obs)

    def register_metrics(self, scope) -> None:
        """Bind this channel's statistics into a metric registry scope.

        The raw stats stay plain int slots — ``commit`` runs once per
        channel per cycle and is the kernel's hottest statistic — so the
        registry holds lazy views that read the exact values at dump time.
        """
        scope.bind("pushed", lambda: self.total_pushed)
        scope.bind("popped", lambda: self.total_popped)
        scope.bind("occupancy_accum", lambda: self.occupancy_accum)
        scope.bind("cycles_observed", lambda: self.cycles_observed)
        scope.bind("mean_occupancy", lambda: self.mean_occupancy)
        scope.bind("capacity", lambda: self.capacity)

    def __len__(self) -> int:
        """Occupancy visible to consumers this cycle."""
        return len(self._items) - self._pop_count

    @property
    def mean_occupancy(self) -> float:
        observed = self.cycles_observed
        return self.occupancy_accum / observed if observed else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelQueue({self.name!r}, {len(self._items)}/{self.capacity})"


class Component:
    """Base class for everything that acts on each clock edge."""

    # Selective-scheduling bookkeeping, installed by Simulator.add; class
    # attributes so existing subclasses need no __init__ changes.
    _sched_index = -1
    _wake_hook: Optional[Callable[["Component"], None]] = None
    _last_tick_cycle = -1
    _ticks_executed = 0
    # Compiled-scheduling slot assignment, installed by CompiledProgram.
    _cslot = -1

    #: Declares ``next_event`` constant at :data:`NEVER`: the component only
    #: ever progresses on channel traffic (pure dataflow elements such as NoC
    #: buffer nodes).  The compiled backend then elides the post-tick hint
    #: call entirely.  Honoured only while ``next_event`` is not shadowed on
    #: the instance (fault injectors patch instance ``next_event`` to model
    #: hangs, which re-enables hint evaluation).
    wake_only = False

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__

    def tick(self, cycle: int) -> None:
        """Advance one cycle; read channel state, stage pushes/pops."""
        raise NotImplementedError

    def next_event(self, cycle: int) -> Optional[float]:
        """Earliest cycle >= ``cycle`` at which this component can make
        progress assuming no new channel traffic arrives, or :data:`NEVER`
        if only channel traffic can wake it, or ``None`` (the safe default)
        for "tick me every cycle".

        The contract backing event-skipping: when a component returns a hint
        ``h``, then with no committed push on a push-subscribed channel and
        no committed pop on a pop-subscribed channel since its previous tick,
        a tick before ``h`` must be a no-op (no pushes, no pops, no state or
        statistics change).  Both subscriptions default to every
        :meth:`wake_channels` entry; :meth:`wake_edges` narrows them.  This
        is a strictly stronger requirement than the original fast-forward
        contract (which only demanded no-op-ness when *every* channel was
        empty); all framework components satisfy it.  Components whose
        ``tick`` mutates state unconditionally (countdowns, pipelines) must
        either return ``None`` or keep their timing in absolute cycles.
        """
        return None

    def channels(self) -> Iterable[ChannelQueue[Any]]:
        """Channels owned by this component (auto-registered)."""
        return [v for v in vars(self).values() if isinstance(v, ChannelQueue)]

    def wake_edges(
        self,
    ) -> Optional[Tuple[Iterable[ChannelQueue[Any]], Iterable[ChannelQueue[Any]]]]:
        """Opt-in edge-directed sensitivity: ``(on_push, on_pop)`` or ``None``.

        ``on_push`` lists the channels whose committed *pushes* can let this
        component progress (its inputs), ``on_pop`` those whose committed
        *pops* can (outputs it sleeps on while they are full).  The compiled
        backend then wakes it on exactly those edges, so its own pops and
        pushes — and its neighbours' consumption of what it produced — no
        longer re-wake it for a no-op tick.

        The price is that a declaring class covers its own backlog in
        :meth:`next_event`: whenever a tick would still act with no further
        edge (an input still holds a visible item after this tick and the
        output it needs has room), the hint must name the next cycle,
        because the self-re-wake the default rule provides is gone.  ``None``
        (the default) keeps both edges of every :meth:`wake_channels` entry,
        which needs no such care; an instance whose ``tick`` or
        ``next_event`` is patched (fault hang injection) also falls back to
        it.  The other schedules read the union through
        :meth:`wake_channels` — a superset is always safe.
        """
        return None

    def wake_channels(self) -> Iterable[ChannelQueue[Any]]:
        """Channels whose push/pop activity may let this component progress.

        The selective scheduler subscribes the component to each of these:
        any committed push or pop on one wakes it the next cycle.  The set
        must cover every channel the component's ``tick`` reads *or* probes
        for space (``can_push``) — a full output channel is part of the wake
        set because only a pop on it can unblock the producer — unless the
        component's hint already keeps it ticking while it is blocked there.

        The default is the union of a :meth:`wake_edges` declaration when
        the class makes one, else the component's own :meth:`channels`,
        which is correct for components that only touch channels they own.
        Components that touch foreign channels (NoC nodes forwarding between
        ports, cores driving Reader/Writer queues) must override this with
        the complete set; a superset is always safe (spurious wakes cost
        time, never correctness).

        The compiled backend applies the same membership rule (any committed
        push or pop wakes every subscriber) to every component that declares
        no edges: a component that consumes one of several pending items per
        tick then relies on its *own* activity re-waking it to drain the
        rest.  Components may also define ``compile_tick()`` returning a
        decision-identical specialised closure ``fn(cycle)`` (or ``None`` to
        decline); the compiled backend prefers it over the plain bound
        ``tick`` unless the instance's ``tick`` has been patched (fault hang
        injection).
        """
        edges = self.wake_edges()
        if edges is None:
            return self.channels()
        on_push, on_pop = edges
        return list(dict.fromkeys([*on_push, *on_pop]))

    def request_wake(self) -> None:
        """Ask the selective and compiled schedulers to tick this component.

        Escape hatch for progress enabled by *non-channel* coupling: e.g. a
        core calling :meth:`repro.memory.scratchpad.Memory.read` directly on
        another component's memory.  It is also the contract *between* runs:
        an entry wakes nobody, so host code that changes a component outside
        any channel (a submission, a bridge batch) must call it.  Safe from
        any mode (a no-op under naive and fast-forward), in a tick or not.
        """
        hook = self._wake_hook
        if hook is not None:
            hook(self)

    @property
    def metric_path(self) -> str:
        """Namespace path for this component's metrics.

        Component names already encode the design hierarchy with dots
        (``reader.Memcpy.c0.copy_in0``); the default maps them to registry
        paths (``reader/Memcpy/c0/copy_in0``).  Subclasses override to place
        themselves under a subsystem root (``dram/``, ``runtime/``...).
        """
        return self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        """Attach/bind this component's metrics under ``scope``.

        Queued by :meth:`Simulator.add` and called when the registry is
        first used; the default registers nothing (channel statistics are
        bound separately by the simulator).
        """

    def debug_state(self) -> Optional[Dict[str, Any]]:
        """Structured snapshot for deadlock dumps, or ``None`` when idle.

        Components with interesting blocking state (the runtime server's
        waiters, the memory controller's in-flight transactions) override
        this; :meth:`Simulator.state_dump` collects every non-``None`` result
        into the :class:`DeadlockError` payload.
        """
        return None

    #: Attribute names the snapshot freezer does not walk, on top of the
    #: scheduler wiring (``_sched_index``/``_wake_hook``/``_cslot``): the
    #: construction-time wiring (ports, channels, contexts, configs) that
    #: the rebuild recreates.  Each class lists what *it* binds; the freezer
    #: takes the union up the MRO, on components and on any other object it
    #: reaches.  An attribute nobody lists is captured, so a missing entry
    #: costs time, never correctness; a listed one must never be rebound
    #: after elaboration (``tests/test_snapshot_structure.py`` audits that).
    _snapshot_exclude: Tuple[str, ...] = ()

    def snapshot_state(self, fr) -> Dict[str, Any]:
        """Freeze this component's mutable state for ``repro.snapshot``.

        The default captures every instance attribute through the freezer
        (channels and infrastructure become references, callables are
        skipped, ``_snapshot_exclude`` names are dropped); components whose
        state embeds host-side callbacks (the runtime server) override both
        this and :meth:`restore_state` with an explicit protocol.  The same
        two methods on *any* reachable object (``MemoryStore``) make the
        freezer store what they return instead of walking the object.
        """
        from repro.snapshot.engine import SCHED_ATTRS  # lazy: avoid cycle

        return fr.freeze_attrs(self, exclude=SCHED_ATTRS)

    def restore_state(self, state: Dict[str, Any], th) -> None:
        """Apply a :meth:`snapshot_state` payload onto this live component."""
        th.thaw_attrs(self, state)


class Simulator:
    """Owns the clock; ticks components and commits channels each cycle.

    ``scheduling`` selects one of four cycle-identical schedules:

    * ``"naive"`` ticks everything every cycle;
    * ``"fast_forward"`` (the legacy ``fast_forward=True``) adds whole-design
      jumps over globally quiescent windows;
    * ``"selective"`` runs the per-component event-driven scheduler: each
      cycle only the components woken by dirty channels, matured
      ``next_event`` hints, or explicit :meth:`Component.request_wake` calls
      are ticked, and only dirty channels commit (with lazy occupancy
      crediting so every statistic matches naive stepping exactly);
    * ``"compiled"`` executes the same schedule through a tick program
      compiled at the first ``run()`` (see :mod:`repro.sim.compiled`):
      specialised per-component closures, fused contiguous co-woken chains,
      per-edge channel subscriptions, and an inlined commit drain.

    A component returning ``None`` from :meth:`Component.next_event` (the
    default) is ticked every cycle under every schedule, so unhinted user
    cores are always safe.
    """

    def __init__(
        self,
        name: str = "sim",
        fast_forward: bool = False,
        tracer: Optional["Tracer"] = None,
        registry=None,
        profile: bool = False,
        scheduling: Optional[str] = None,
    ) -> None:
        from repro.obs.registry import MetricRegistry  # lazy: avoid import cycle

        if scheduling is None:
            scheduling = "fast_forward" if fast_forward else "naive"
        if scheduling not in SCHEDULING_MODES:
            raise ValueError(
                f"unknown scheduling mode {scheduling!r}; pick one of {SCHEDULING_MODES}"
            )
        self.name = name
        self.cycle = 0
        self.scheduling = scheduling
        self.fast_forward = scheduling == "fast_forward"
        self.tracer = tracer
        self._components: List[Component] = []
        self._channels: List[ChannelQueue[Any]] = []
        self._channel_ids = set()
        self._quiescent = False
        # Skip accounting, surfaced by :func:`repro.sim.trace.skip_summary`.
        self.cycles_skipped = 0
        self.skip_events = 0
        # run() calls, slots woken by _wake_all_on_entry, step() since a run.
        self.run_entries = 0
        self.entry_wakes = 0
        self._touched = False
        # Selective-scheduler state.  The compiled backend reuses the dirty
        # list, lazy anchors and per-component tick accounting, so every
        # ``_selective`` guard below covers both modes; only run() dispatch
        # distinguishes them.
        self._selective = scheduling in ("selective", "compiled")
        self._compiled = scheduling == "compiled"
        self._program = None  # CompiledProgram, built lazily at run()
        self._dirty_channels: List[ChannelQueue[Any]] = []
        self._subs: Dict[int, List[int]] = {}
        self._subs_stale = True
        self._wake_heap: List[Tuple[int, int]] = []
        self._woken: Set[int] = set()
        self._ready: Optional[List[int]] = None  # heap of indices, mid-cycle only
        self._current_idx = -1
        # Unified metrics: every added component/channel is adopted here.
        self.registry = registry if registry is not None else MetricRegistry()
        self._bind_own_metrics()
        # Wall-clock self-time profile: component name -> [ns_total, calls].
        self.profile_enabled = profile
        self.tick_profile: Dict[str, List[float]] = {}

    def _bind_own_metrics(self) -> None:
        scope = self.registry.scope("sim")
        scope.bind("cycles_total", lambda: self.cycle)
        # Skip accounting depends on the schedule that ran, so it is
        # volatile: excluded from the stable dump the differential
        # harness compares bit-for-bit across scheduling modes.
        scope.bind("cycles_skipped", lambda: self.cycles_skipped, volatile=True)
        scope.bind(
            "cycles_stepped", lambda: self.cycle - self.cycles_skipped, volatile=True
        )
        scope.bind("skip_events", lambda: self.skip_events, volatile=True)
        scope.bind("run_entries", lambda: self.run_entries, volatile=True)
        scope.bind("entry_wakes", lambda: self.entry_wakes, volatile=True)
        if self.tracer is not None:
            tracer = self.tracer
            tscope = self.registry.scope("trace")
            # Event counts are volatile: they are not part of the stable
            # surface the cross-schedule differentials and digests compare.
            tscope.bind("events", lambda: len(tracer.events), volatile=True)
            tscope.bind("spans", lambda: len(getattr(tracer, "span_log", ())))
            tscope.bind(
                "dropped_events", lambda: tracer.dropped_events, volatile=True
            )
            tscope.bind("dropped_spans", lambda: tracer.dropped_spans)

    def add(self, component: Component) -> Component:
        self._components.append(component)
        self._subs_stale = True
        for chan in component.channels():
            self.register_channel(chan)
        # Metric views are built when the registry is first used, not here:
        # most elaborated designs are never simulated or read.
        self.registry.defer(
            component.metric_path, partial(self._register_component_metrics, component)
        )
        return component

    def _register_component_metrics(self, component: Component, scope) -> None:
        component.register_metrics(scope)
        # Per-component scheduling effectiveness, for wake-set reporting.
        scope.bind(
            "ticks_executed",
            lambda c=component: self.component_ticks(c),
            volatile=True,
        )
        scope.bind(
            "ticks_elided",
            lambda c=component: self.cycle - self.component_ticks(c),
            volatile=True,
        )

    def register_channel(self, chan: ChannelQueue[Any]) -> ChannelQueue[Any]:
        if id(chan) not in self._channel_ids:
            self._channel_ids.add(id(chan))
            self._channels.append(chan)
            self._subs_stale = True
            if self._selective:
                chan._sink = self._dirty_channels
                # Anchor so that a fully synced channel always satisfies
                # cycles_observed == sim.cycle - _anchor, exactly as if it
                # had been committed on every cycle since registration.
                chan._anchor = self.cycle - chan._obs
                chan._sim = self
                # Traffic staged before registration joins the dirty list now,
                # so it always holds every channel with uncommitted traffic.
                if not chan._dirty and (chan._staged or chan._pop_count):
                    chan._dirty = True
                    self._dirty_channels.append(chan)
            self.registry.defer(
                "chan/" + chan.name.replace(".", "/"), chan.register_metrics
            )
        return chan

    def component_ticks(self, component: Component) -> int:
        """Cycles in which ``component.tick`` actually ran.

        Exact per-component counts are kept by the selective schedulers (the
        compiled one folds the component's slot count here); under
        naive/fast-forward every stepped cycle ticks every component.
        """
        if self._selective:
            if self._program is not None and component._cslot >= 0:
                self._program.flush_ticks((component._cslot,))
            return component._ticks_executed
        return self.cycle - self.cycles_skipped

    # -- stepping ------------------------------------------------------------
    def step(self) -> None:
        """Advance exactly one cycle, ticking everything (naive semantics).

        The inner loop of the ``"naive"`` oracle (and of ``"fast_forward"``
        between jumps) plus a test utility for single-stepping a model — not
        a host-path API: the runtime advances time through :meth:`run`, so
        the configured scheduler applies.  All four scheduling modes share
        these step semantics, so tests may freely interleave ``step()`` with
        ``run()``; under the selective and compiled schedules a step marks
        the simulator touched, so the next ``run()`` entry wakes every
        component (the wake state never saw what the step did), and the
        commit sweep first credits any lazily deferred channel observations.
        """
        if self.profile_enabled:
            return self._step_profiled()
        cycle = self.cycle
        selective = self._selective
        for component in self._components:
            component.tick(cycle)
            if selective:
                component._ticks_executed += 1
                component._last_tick_cycle = cycle
        quiescent = True
        for chan in self._channels:
            if selective:
                chan.sync_observations(cycle)
                chan._dirty = False
            chan.commit()
            if chan._items:
                quiescent = False
        if selective:
            self._dirty_channels.clear()
            self._touched = True
        self._quiescent = quiescent
        self.cycle = cycle + 1

    def _step_profiled(self) -> None:
        """One cycle with per-component wall-clock attribution.

        Self-time only: each component's tick is timed individually, and the
        channel-commit sweep is booked under ``(kernel)/commit`` so simulator
        overhead is distinguishable from model cost.
        """
        profile = self.tick_profile
        clock = time.perf_counter_ns
        cycle = self.cycle
        selective = self._selective
        for component in self._components:
            t0 = clock()
            component.tick(cycle)
            dt = clock() - t0
            if selective:
                component._ticks_executed += 1
                component._last_tick_cycle = cycle
            entry = profile.get(component.name)
            if entry is None:
                profile[component.name] = [dt, 1]
            else:
                entry[0] += dt
                entry[1] += 1
        t0 = clock()
        quiescent = True
        for chan in self._channels:
            if selective:
                chan.sync_observations(cycle)
                chan._dirty = False
            chan.commit()
            if chan._items:
                quiescent = False
        if selective:
            self._dirty_channels.clear()
            self._touched = True
        dt = clock() - t0
        entry = profile.get("(kernel)/commit")
        if entry is None:
            profile["(kernel)/commit"] = [dt, 1]
        else:
            entry[0] += dt
            entry[1] += 1
        self._quiescent = quiescent
        self.cycle = cycle + 1

    def run(
        self,
        max_cycles: int,
        until: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until ``until()`` is true (checked between cycles) or the cycle
        budget is exhausted.  Returns the cycle count reached.  Raises
        :class:`SimulationError` when the budget runs out while a predicate is
        pending, because that almost always means the model deadlocked.

        Under the skipping schedules (fast-forward, selective, compiled),
        ``until`` must be a function of model state (channel/component
        contents), not of the raw cycle counter: skipped cycles are exactly the
        ones in which no model state changes, so a state predicate is evaluated
        at every cycle where its value could flip — but a predicate on
        ``sim.cycle`` itself could fire inside a skipped window and be missed.

        The predicate is evaluated exactly once per advanced cycle (the
        result is cached for the cycle, so predicate-heavy runs are not
        charged twice for the fast-forward guard's re-check).

        Under selective and compiled a run entry pays only for what changed
        (:meth:`_wake_all_on_entry`); the exit syncs nothing, because channel
        statistics and tick counts are exact when read.
        """
        self.run_entries += 1
        deadline = self.cycle + max_cycles
        if self._compiled:
            return self._run_compiled(deadline, max_cycles, until)
        if self._selective:
            return self._run_selective(deadline, max_cycles, until)
        pred = bool(until()) if until is not None else False
        while self.cycle < deadline:
            if pred:
                return self.cycle
            self.step()
            pred = bool(until()) if until is not None else False
            if (
                self.fast_forward
                and self._quiescent
                and self.cycle < deadline
                # Never skip once the predicate holds: the caller must observe
                # the first satisfying cycle, not some later wake-up.
                and not pred
            ):
                self._try_fast_forward(deadline, to_deadline_ok=until is None)
        if until is not None and not pred:
            self._raise_deadlock(max_cycles)
        return self.cycle

    def run_slice(self, n_cycles: int) -> int:
        """Advance exactly ``n_cycles`` cycles with no completion predicate.

        The distributed engine's unit of execution: a partition runs one
        lookahead slice between barriers, with any externally-injected bridge
        traffic already sitting in its ingress delay lines.  Semantically just
        ``run(n_cycles, until=None)`` — which can never raise
        :class:`DeadlockError` — but named so call sites read as slice-bounded
        execution rather than budgeted completion waits.
        """
        if n_cycles <= 0:
            return self.cycle
        return self.run(n_cycles, until=None)

    # -- selective scheduling -------------------------------------------------
    def _wake_all_on_entry(self, fresh: bool, n_slots: int) -> bool:
        """The ``run()`` entry rule both skipping schedulers share.

        Between runs change announces itself — a push or pop on a registered
        channel lands in the dirty list (committed at the entry cycle, which
        is always stepped), anything else calls :meth:`Component.request_wake`
        — and the wake state carries over, so an entry wakes nobody.  Only a
        ``fresh`` schedule (first run; rebuilt after a restore or an add),
        which also adopts staged channels, and a :meth:`step` since the last
        run wake all ``n_slots`` for one naive cycle; returns whether to.
        """
        if not (fresh or self._touched):
            return False
        self._touched = False
        self.entry_wakes += n_slots
        if fresh:
            dirty = self._dirty_channels
            for chan in self._channels:
                if not chan._dirty and (chan._staged or chan._pop_count):
                    chan._dirty = True
                    dirty.append(chan)
        return True

    def _prepare_selective(self) -> None:
        """Refresh subscriptions at ``run()`` entry and apply the entry rule."""
        fresh = self._subs_stale
        if fresh:
            subs: Dict[int, List[int]] = {}
            for idx, comp in enumerate(self._components):
                comp._sched_index = idx
                comp._wake_hook = self._request_wake
                for chan in comp.wake_channels():
                    subs.setdefault(id(chan), []).append(idx)
            self._subs = subs
            self._subs_stale = False
        if self._wake_all_on_entry(fresh, len(self._components)):
            self._woken.update(range(len(self._components)))

    def _request_wake(self, component: Component) -> None:
        """Wake ``component`` at the earliest cycle that matches naive order.

        Called mid-tick-loop (via :meth:`Component.request_wake`) when
        component A mutates B's non-channel state: if B is later in
        registration order and has not ticked this cycle it is injected into
        the current cycle's ready heap (naive would tick it after A this very
        cycle); otherwise it is woken for the next cycle (naive ticked it
        before A, necessarily as a no-op on the pre-mutation state).
        """
        idx = component._sched_index
        if idx < 0:
            return
        ready = self._ready
        if (
            ready is not None
            and idx > self._current_idx
            and component._last_tick_cycle != self.cycle
        ):
            heappush(ready, idx)
        else:
            self._woken.add(idx)

    def _run_selective(
        self, deadline: int, max_cycles: int, until: Optional[Callable[[], bool]]
    ) -> int:
        self._prepare_selective()
        components = self._components
        subs = self._subs
        wake_heap = self._wake_heap
        woken = self._woken
        dirty = self._dirty_channels
        profile = self.profile_enabled
        tick_profile = self.tick_profile
        clock = time.perf_counter_ns
        pred = bool(until()) if until is not None else False
        first = self.cycle
        while self.cycle < deadline:
            if pred:
                break
            cycle = self.cycle
            while wake_heap and wake_heap[0][0] <= cycle:
                woken.add(heappop(wake_heap)[1])
            # The entry cycle is stepped even if nobody wakes: it commits
            # what the host staged between runs, exactly when naive would.
            if not woken and cycle != first:
                # Nothing can act before the earliest scheduled wake: the
                # model state is provably frozen, so jump (the predicate's
                # value is frozen with it).
                target = wake_heap[0][0] if wake_heap else deadline
                if target > deadline:
                    target = deadline
                self.cycles_skipped += target - cycle
                self.skip_events += 1
                self.cycle = target
                continue
            ready = list(woken)
            heapify(ready)
            woken.clear()
            self._ready = ready
            while ready:
                idx = heappop(ready)
                comp = components[idx]
                if comp._last_tick_cycle == cycle:
                    continue  # duplicate wake this cycle
                comp._last_tick_cycle = cycle
                self._current_idx = idx
                if profile:
                    t0 = clock()
                    comp.tick(cycle)
                    dt = clock() - t0
                    entry = tick_profile.get(comp.name)
                    if entry is None:
                        tick_profile[comp.name] = [dt, 1]
                    else:
                        entry[0] += dt
                        entry[1] += 1
                else:
                    comp.tick(cycle)
                comp._ticks_executed += 1
                hint = comp.next_event(cycle + 1)
                if hint is None or hint <= cycle + 1:
                    woken.add(idx)
                elif hint != NEVER:
                    heappush(wake_heap, (int(hint), idx))
            self._ready = None
            self._current_idx = -1
            if dirty:
                if profile:
                    t0 = clock()
                for chan in dirty:
                    chan.sync_observations(cycle)
                    chan.commit()
                    chan._dirty = False
                    for cidx in subs.get(id(chan), ()):
                        woken.add(cidx)
                dirty.clear()
                if profile:
                    dt = clock() - t0
                    entry = tick_profile.get("(kernel)/commit")
                    if entry is None:
                        tick_profile["(kernel)/commit"] = [dt, 1]
                    else:
                        entry[0] += dt
                        entry[1] += 1
            self.cycle = cycle + 1
            pred = bool(until()) if until is not None else False
        if self.cycle >= deadline and until is not None and not pred:
            self._raise_deadlock(max_cycles)
        return self.cycle

    # -- compiled scheduling ---------------------------------------------------
    def _run_compiled(
        self, deadline: int, max_cycles: int, until: Optional[Callable[[], bool]]
    ) -> int:
        """Run through the compiled tick program, (re)building it if stale.

        The program is compiled lazily at the first ``run()`` and recompiled
        whenever a component or channel was added since (``_subs_stale``), so
        late additions such as the runtime server joining after elaboration
        are picked up exactly like the selective scheduler's subscription
        rebuild.
        """
        from repro.sim.compiled import CompiledProgram  # lazy: avoid cycle

        program = self._program
        if program is None or self._subs_stale:
            if program is not None:
                program.flush_ticks()
            program = self._program = CompiledProgram(self)
            self._subs_stale = False
        return program.run(deadline, max_cycles, until)

    # -- deadlock diagnosis ---------------------------------------------------
    def state_dump(self) -> Dict[str, Any]:
        """Structured snapshot of everything that could explain a stall.

        Collected when a ``run()`` budget expires with its predicate pending:
        non-empty channel occupancies, each component's
        :meth:`Component.debug_state`, and (under selective scheduling) the
        wake heap and woken set.  Cheap enough to also call ad hoc while
        debugging a live simulation.
        """
        channels: Dict[str, Dict[str, int]] = {}
        for chan in self._channels:
            occ = len(chan)
            staged = len(chan._staged)
            if occ or staged or chan._pop_count:
                channels[chan.name] = {
                    "occupancy": occ,
                    "staged": staged,
                    "pending_pops": chan._pop_count,
                    "capacity": chan.capacity,
                }
        components: Dict[str, Dict[str, Any]] = {}
        for comp in self._components:
            try:
                state = comp.debug_state()
            except Exception:  # noqa: BLE001 — diagnosis must never mask the stall
                state = {"debug_state": "unavailable"}
            if state:
                components[comp.name] = state
        dump: Dict[str, Any] = {
            "sim": self.name,
            "cycle": self.cycle,
            "scheduling": self.scheduling,
            "channels": channels,
            "components": components,
        }
        if self._compiled:
            program = self._program
            if program is not None:
                dump["wake_heap"], dump["woken"] = program.wake_dump()
        elif self._selective:
            dump["wake_heap"] = sorted(
                (cyc, self._components[idx].name) for cyc, idx in self._wake_heap
            )
            dump["woken"] = sorted(self._components[idx].name for idx in self._woken)
        return dump

    def _raise_deadlock(self, max_cycles: int) -> None:
        from repro.sim.trace import compact_state_dump, render_deadlock_report

        # Cap the attached dump: a 64-core/4-die config otherwise produces a
        # multi-megabyte exception that drowns the diagnosis (the full dump
        # stays available via state_dump() / tools' --export-state-dump).
        dump = compact_state_dump(self.state_dump())
        raise DeadlockError(
            f"simulation {self.name!r} did not converge in {max_cycles} cycles\n"
            + render_deadlock_report(dump),
            dump,
        )

    # -- event skipping -----------------------------------------------------
    def _try_fast_forward(self, deadline: int, to_deadline_ok: bool) -> None:
        """Jump to the earliest pending component event, if one is provable."""
        if self.profile_enabled:
            t0 = time.perf_counter_ns()
            try:
                return self._fast_forward_inner(deadline, to_deadline_ok)
            finally:
                dt = time.perf_counter_ns() - t0
                entry = self.tick_profile.get("(kernel)/fast_forward")
                if entry is None:
                    self.tick_profile["(kernel)/fast_forward"] = [dt, 1]
                else:
                    entry[0] += dt
                    entry[1] += 1
        return self._fast_forward_inner(deadline, to_deadline_ok)

    def _fast_forward_inner(self, deadline: int, to_deadline_ok: bool) -> None:
        target = NEVER
        for component in self._components:
            hint = component.next_event(self.cycle)
            if hint is None:
                return  # unhinted component: must tick every cycle
            if hint < target:
                target = hint
        if target == NEVER:
            # Nothing self-scheduled anywhere.  With no predicate pending the
            # remaining cycles are provably dead, so jump to the deadline;
            # with a predicate we keep naive stepping (the budget-exhausted
            # error path must observe the same cycles it would naively).
            if not to_deadline_ok:
                return
            target = deadline
        target = min(int(target), deadline)
        if target <= self.cycle:
            return
        skipped = target - self.cycle
        for chan in self._channels:
            chan.credit_idle_cycles(skipped)
        self.cycles_skipped += skipped
        self.skip_events += 1
        self.cycle = target
