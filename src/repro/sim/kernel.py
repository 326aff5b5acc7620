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

Two scheduling modes are supported, cycle- and statistic-identical:

* ``"naive"`` — the oracle: tick every component each cycle, then commit
  the channels that saw a push or pop.
* ``"compiled"`` — the production loop (:mod:`repro.sim.compiled`): a
  component is ticked only when one of its wake channels saw a committed
  push or pop, when its :meth:`Component.next_event` hint arrives, or when
  it requested a wake through :meth:`Component.request_wake`, and windows
  where nobody is woken are jumped.  At the first ``run()`` the component
  graph becomes a tick program with one scheduling slot per component, and
  channel commits drain through flat per-channel subscriber arrays.  Identical cycles,
  channel statistics and stable metrics; only the wall clock and the
  volatile tick accounting differ.

Both schedules step the same model body.  A class on the streaming path
(the DRAM controller included) defines its tick as a ``compile_tick()``
closure with endpoints bound once, and :meth:`Component.tick` runs it, so
comparing the schedules checks scheduling, not the models; the models are
checked against independent oracles (for the DRAM controller, the
standalone timing model in ``tests/dram_oracle.py``).
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Dict, Generic, Iterable, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Sentinel a :meth:`Component.next_event` may return meaning "I have no
#: self-scheduled future work; only new channel traffic can wake me".
NEVER = float("inf")

#: Valid ``Simulator(scheduling=...)`` values.
SCHEDULING_MODES = ("naive", "compiled")

#: What ``BeethovenBuild`` and ``build_memory_testbench`` hand out when the
#: caller names no schedule.  ``Simulator()`` itself stays ``"naive"``.
DEFAULT_SCHEDULING = "compiled"


def book_ns(profile: Dict[str, List[float]], key: str, dt: float) -> None:
    """Add one ``dt``-nanosecond sample to ``profile[key]`` ([ns, calls])."""
    entry = profile.get(key)
    if entry is None:
        profile[key] = [dt, 1]
    else:
        entry[0] += dt
        entry[1] += 1


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


class _Unregistered:
    """The clock of every channel no simulator has registered.  It stands
    at cycle 0; such a channel counts its own :meth:`ChannelQueue.commit`
    calls by lowering its ``_anchor``."""

    __slots__ = ()
    cycle = 0


_UNREGISTERED = _Unregistered()


class ChannelQueue(Generic[T]):
    """A registered FIFO channel with start-of-cycle visibility semantics.

    ``can_push``/``push`` are the producer interface and ``can_pop``/``peek``/
    ``pop`` the consumer interface.  Capacity admission uses the occupancy at
    the start of the cycle plus anything staged this cycle, so a full queue
    does not accept a push in the same cycle one of its items is popped.

    A transfer costs one guard and one O(1) update: ``push`` and ``pop``
    stage the item or the pop and put the channel on its clock's dirty list
    the first time it is touched in a cycle; the commit applies both and
    does all the counting.  The statistics are derived, exact at any time
    (mid-tick too):

    * ``total_popped`` is ``_popped`` (pops committed) plus ``_pop_count``;
    * ``total_pushed`` is ``total_popped`` plus the items still held;
    * ``cycles_observed`` is ``_clock.cycle - _anchor``, the commits a
      channel committed every cycle would have made;
    * ``occupancy_accum`` is ``_area + len(_items) * cycles_observed``.
      ``_area`` changes only at a commit that changes the occupancy, which
      keeps that sum equal to the occupancy integral over every observed
      cycle.
    """

    # Slotted: channels are the hottest objects in the kernel (every guard in
    # every tick probes one), and fixed-offset attribute access measurably
    # beats dict lookup in the compiled hot loop.
    __slots__ = (
        "capacity",
        "name",
        "_items",
        "_staged",
        "_pop_count",
        "_popped",
        "_area",
        "_anchor",
        "_clock",
        "_sink",
        "_dirty",
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
        # Statistics (NoC link utilisation reporting), read through the
        # exact properties below.
        self._popped = 0
        self._area = 0
        self._anchor = 0
        # ``_clock`` is the registering simulator and ``_sink`` its dirty
        # list, which holds every channel with an uncommitted push or pop;
        # ``_dirty`` marks membership.  Until Simulator.register_channel
        # installs them, the channel stays marked dirty, so push and pop
        # never reach ``_sink`` (an empty tuple: appending would raise), and
        # its own commit() applies what it holds.
        self._clock: Any = _UNREGISTERED
        self._sink: Any = ()
        self._dirty = True
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
        if not self._dirty:
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
        items = self._items
        if n >= len(items):
            raise SimulationError(f"pop from empty channel {self.name!r}")
        self._pop_count = n + 1
        if not self._dirty:
            self._dirty = True
            self._sink.append(self)
        return items[n]

    # -- kernel interface ----------------------------------------------------
    def commit(self) -> None:
        """End one cycle of a channel no simulator registered: apply its
        pops and pushes and count the cycle.  A registered channel is
        committed by its simulator, and refuses this."""
        if self._clock is not _UNREGISTERED:
            raise SimulationError(f"channel {self.name!r} is committed by its simulator")
        commit_dirty([self], 0)
        self._dirty = True
        self._anchor -= 1

    @property
    def total_popped(self) -> int:
        return self._popped + self._pop_count

    @property
    def total_pushed(self) -> int:
        return self._popped + len(self._items) + len(self._staged)

    @property
    def cycles_observed(self) -> int:
        """Commits a channel committed every cycle would have made by now."""
        return self._clock.cycle - self._anchor

    @property
    def occupancy_accum(self) -> int:
        """Occupancy integral over every observed cycle."""
        return self._area + len(self._items) * (self._clock.cycle - self._anchor)

    def register_metrics(self, scope) -> None:
        """Bind this channel's statistics into a metric registry scope.

        The statistics are derived from raw slots that only a commit
        updates, so the registry holds lazy views that read the exact
        values at dump time.
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


def commit_dirty(dirty: List[ChannelQueue[Any]], cycle: int) -> None:
    """Commit every channel on ``dirty`` at the end of ``cycle``, then empty
    the list.

    A commit applies the cycle's pops and pushes, counts the pops and, when
    the occupancy changes by ``len(staged) - pops``, moves ``_area`` by the
    opposite amount times the cycles observed once this one is, so that
    ``occupancy_accum`` is unchanged at the commit and grows by the new
    occupancy from the next cycle on.  The compiled program's drain is this
    loop with the subscriber wakes inlined.
    """
    end = cycle + 1
    for chan in dirty:
        items = chan._items
        n = chan._pop_count
        staged = chan._staged
        k = len(staged)
        if n != k:
            chan._area += (n - k) * (end - chan._anchor)
        if n:
            del items[:n]
            chan._popped += n
            chan._pop_count = 0
        if k:
            items += staged
            staged.clear()
        chan._dirty = False
    dirty.clear()


#: What a run derives and keeps on a component that is neither
#: construction-time structure nor state: the scheduler wiring the compiled
#: program installs, the cached tick closure, the pipe's earliest due cycle,
#: and the runtime server's lookup hints (a client with a queued command, a
#: core with a waiter), re-derived from its tables on every use.  A restore
#: drops each one whose class has a default, which the next use rebuilds.
RUN_CACHES = ("_sched_index", "_wake_hook", "_tick_body", "_next_due", "_queued_client",
              "_waiting_key")


class Component:
    """Base class for everything that acts on each clock edge.

    A subclass declares its *state* — every attribute that a run changes
    and a snapshot must capture — in one tuple, ``_state``; the snapshot
    engine unions the tuples up the MRO
    (``repro.snapshot.engine.declared_state``).
    Every other attribute is structure: made at construction, rebuilt by
    re-elaboration, never written by a restore.  A subclass that adds no
    state declares ``_state = ()``; one that declares nothing is refused at
    capture.  Every component is captured this way: what a state field holds
    that is not state (a channel, another component, a host command's
    context) is captured as a reference to the rebuilt object.
    """

    _state: Tuple[str, ...] = ("_ticks_executed",)

    # Compiled-scheduling bookkeeping, installed by CompiledProgram; class
    # attributes so existing subclasses need no __init__ changes.
    _sched_index = -1
    _wake_hook: Optional[Callable[["Component"], None]] = None
    _ticks_executed = 0

    #: Declares the component progresses only on channel traffic (pure
    #: dataflow elements such as NoC buffer nodes): :meth:`next_event` then
    #: answers :data:`NEVER`, and the compiled backend elides the post-tick
    #: hint call entirely.  Honoured only while ``next_event`` is not
    #: shadowed on the instance (fault injectors patch instance
    #: ``next_event`` to model hangs, which re-enables hint evaluation).
    wake_only = False

    #: This instance's ``compile_tick()`` closure once :meth:`tick_body`
    #: built it.  Never captured by a snapshot; a restore drops it, since
    #: the closure binds the state objects the restore may replace.
    _tick_body: Optional[Callable[[int], None]] = None

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__

    def tick(self, cycle: int) -> None:
        """Advance one cycle; read channel state, stage pushes/pops.

        A class may define ``compile_tick()`` instead: a factory returning
        the tick as a closure ``fn(cycle)`` with its channel endpoints and
        constants bound once.  This default then runs that closure, so both
        schedules step the one body.
        """
        body = self._tick_body
        if body is None:
            body = self.tick_body()
        body(cycle)

    def tick_body(self) -> Callable[[int], None]:
        """The class's ``compile_tick()`` closure, built once per instance."""
        body = self._tick_body
        if body is None:
            factory = getattr(self, "compile_tick", None)
            if factory is None:
                raise NotImplementedError(
                    f"{type(self).__name__} defines neither tick nor compile_tick"
                )
            body = self._tick_body = factory()
        return body

    def next_event(self, cycle: int) -> Optional[float]:
        """Earliest cycle >= ``cycle`` at which this component can make
        progress assuming no new channel traffic arrives, or :data:`NEVER`
        if only channel traffic can wake it, or ``None`` (the safe default
        unless the class is :attr:`wake_only`) for "tick me every cycle".

        The contract backing event-skipping: when a component returns a hint
        ``h``, then with no committed push on a push-subscribed channel and
        no committed pop on a pop-subscribed channel since its previous tick,
        a tick before ``h`` must be a no-op (no pushes, no pops, no state or
        statistics change).  Both subscriptions default to every
        :meth:`wake_channels` entry; :meth:`wake_edges` narrows them.  All
        framework components satisfy it.  Components whose
        ``tick`` mutates state unconditionally (countdowns, pipelines) must
        either return ``None`` or keep their timing in absolute cycles.
        """
        return NEVER if self.wake_only else None

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
        it.  :meth:`wake_channels` reports the union — a superset is always
        safe.
        """
        return None

    def wake_channels(self) -> Iterable[ChannelQueue[Any]]:
        """Channels whose push/pop activity may let this component progress.

        The compiled scheduler subscribes the component to each of these:
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

        Under that membership rule (applied to every component that declares
        no edges) a component that consumes one of several pending items per
        tick relies on its *own* activity re-waking it to drain the rest.
        """
        edges = self.wake_edges()
        if edges is None:
            return self.channels()
        on_push, on_pop = edges
        return list(dict.fromkeys([*on_push, *on_pop]))

    def request_wake(self) -> None:
        """Ask the compiled scheduler to tick this component.

        Escape hatch for progress enabled by *non-channel* coupling: e.g. a
        core calling :meth:`repro.memory.scratchpad.Memory.read` directly on
        another component's memory.  It is also the contract *between* runs:
        an entry wakes nobody, so host code that changes a component outside
        any channel (a submission, a bridge batch) must call it.  Safe from
        either mode (a no-op under naive), in a tick or not.
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


class Simulator:
    """Owns the clock; ticks components and commits channels each cycle.

    Both schedules commit the one dirty list every registered channel
    joins when it is first pushed or popped in a cycle; a channel nobody
    touched has nothing to apply, and its statistics follow the clock.
    ``scheduling`` selects one of two cycle-identical schedules:

    * ``"naive"`` (the default) ticks everything every cycle — the oracle;
    * ``"compiled"`` executes the event-driven tick program compiled at the
      first ``run()`` (see :mod:`repro.sim.compiled`): each cycle only the
      components woken by dirty channels, matured ``next_event`` hints, or
      explicit :meth:`Component.request_wake` calls are ticked.

    A component returning ``None`` from :meth:`Component.next_event` (the
    default) is ticked every cycle under either schedule, so unhinted user
    cores are always safe.
    """

    def __init__(
        self,
        name: str = "sim",
        tracer: Optional["Tracer"] = None,
        profile: bool = False,
        scheduling: str = "naive",
    ) -> None:
        from repro.obs.registry import MetricRegistry  # lazy: avoid import cycle

        if scheduling not in SCHEDULING_MODES:
            raise ValueError(
                f"unknown scheduling mode {scheduling!r}; pick one of {SCHEDULING_MODES}"
            )
        self.name = name
        self.cycle = 0
        self.scheduling = scheduling
        self.tracer = tracer
        self._components: List[Component] = []
        self._channels: List[ChannelQueue[Any]] = []
        self._channel_ids = set()
        # Skip accounting, surfaced by :func:`repro.sim.trace.skip_summary`.
        self.cycles_skipped = 0
        self.skip_events = 0
        # run() calls, slots woken by _wake_all_on_entry, step() since a run.
        self.run_entries = 0
        self.entry_wakes = 0
        self._touched = False
        # True while step() ticks; the compiled loop's marker is its
        # program's ``_ready`` (see :attr:`mid_cycle`).
        self._stepping = False
        # Every registered channel with an uncommitted push or pop.
        self._dirty_channels: List[ChannelQueue[Any]] = []
        # Compiled-schedule state: per-component tick accounting behind
        # every ``_compiled`` guard.
        self._compiled = scheduling == "compiled"
        self._program = None  # CompiledProgram, built lazily at run()
        self._subs_stale = True
        # Unified metrics: every added component/channel is adopted here.
        self.registry = MetricRegistry()
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
            tscope.bind("spans", lambda: len(tracer.span_log))
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
            # Move the channel onto this clock, keeping what it observed so
            # far, and its uncommitted traffic onto this dirty list.
            chan._anchor = self.cycle - chan.cycles_observed
            chan._clock = self
            chan._sink = self._dirty_channels
            chan._dirty = bool(chan._staged or chan._pop_count)
            if chan._dirty:
                self._dirty_channels.append(chan)
            self.registry.defer(
                "chan/" + chan.name.replace(".", "/"), chan.register_metrics
            )
        return chan

    def component_ticks(self, component: Component) -> int:
        """Cycles in which ``component.tick`` actually ran.

        Exact per-component counts are kept by the compiled schedule (its
        program folds the component's slot count here); under naive every
        cycle ticks every component.
        """
        if self._compiled:
            if self._program is not None and component._sched_index >= 0:
                self._program.flush_ticks((component._sched_index,))
            return component._ticks_executed
        return self.cycle - self.cycles_skipped

    @property
    def mid_cycle(self) -> bool:
        """True while a cycle's ticks run (a component's tick is on the stack)."""
        program = self._program
        return self._stepping or (program is not None and program._ready is not None)

    # -- stepping ------------------------------------------------------------
    def step(self) -> None:
        """Advance exactly one cycle, ticking everything (naive semantics).

        The inner loop of the ``"naive"`` oracle plus a test utility for
        single-stepping a model — not a host-path API: the runtime advances
        time through :meth:`run`, so the configured scheduler applies.  Both
        modes share these step semantics, so tests may freely interleave
        ``step()`` with ``run()``; under the compiled schedule a step marks
        the simulator touched, so the next ``run()`` entry wakes every
        component (the wake state never saw what the step did).

        Profiled runs time each tick individually and book the dirty-list
        commit under ``(kernel)/commit``, so simulator overhead is
        distinguishable from model cost.
        """
        cycle = self.cycle
        compiled = self._compiled
        profile = self.tick_profile if self.profile_enabled else None
        clock = time.perf_counter_ns
        self._stepping = True
        for component in self._components:
            if profile is None:
                component.tick(cycle)
            else:
                t0 = clock()
                component.tick(cycle)
                book_ns(profile, component.name, clock() - t0)
            if compiled:
                component._ticks_executed += 1
        self._stepping = False
        if profile is not None:
            t0 = clock()
        commit_dirty(self._dirty_channels, cycle)
        if compiled:
            self._touched = True
        if profile is not None:
            book_ns(profile, "(kernel)/commit", clock() - t0)
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

        Under the compiled schedule ``until`` must be a function of model
        state (channel/component contents), not of the raw cycle counter:
        skipped cycles are exactly the ones in which no model state changes,
        so a state predicate is evaluated at every cycle where its value
        could flip — but a predicate on ``sim.cycle`` itself could fire
        inside a skipped window and be missed.  The predicate is evaluated
        exactly once per advanced cycle.

        A compiled run entry pays only for what changed
        (:meth:`_wake_all_on_entry`); the exit syncs nothing, because channel
        statistics and tick counts are exact when read.
        """
        self.run_entries += 1
        deadline = self.cycle + max_cycles
        if self._compiled:
            return self._run_compiled(deadline, max_cycles, until)
        pred = bool(until()) if until is not None else False
        while self.cycle < deadline:
            if pred:
                return self.cycle
            self.step()
            pred = bool(until()) if until is not None else False
        if until is not None and not pred:
            self._raise_deadlock(max_cycles)
        return self.cycle

    # -- compiled scheduling ---------------------------------------------------
    def _wake_all_on_entry(self, fresh: bool, n_slots: int) -> bool:
        """The compiled schedule's ``run()`` entry rule.

        Between runs change announces itself — a push or pop on a registered
        channel lands in the dirty list (committed at the entry cycle, which
        is always stepped), anything else calls :meth:`Component.request_wake`
        — and the wake state carries over, so an entry wakes nobody.  Only a
        ``fresh`` program (first run; rebuilt after a restore or an add)
        and a :meth:`step` since the last run wake all ``n_slots`` for one
        naive cycle; returns whether to.
        """
        if not (fresh or self._touched):
            return False
        self._touched = False
        self.entry_wakes += n_slots
        return True

    def _run_compiled(
        self, deadline: int, max_cycles: int, until: Optional[Callable[[], bool]]
    ) -> int:
        """Run through the compiled tick program, (re)building it if stale.

        The program is compiled lazily at the first ``run()`` and recompiled
        whenever a component or channel was added since (``_subs_stale``), so
        late additions such as the runtime server joining after elaboration
        are picked up.
        """
        from repro.sim.compiled import CompiledProgram  # lazy: avoid cycle

        program = self._program
        if program is None or self._subs_stale:
            if program is not None:
                program.flush_ticks()
            program = self._program = CompiledProgram(self)
            self._subs_stale = False
        return program.run(deadline, max_cycles, until)

    # -- snapshot -------------------------------------------------------------
    #: The keys of :meth:`snapshot_state`.  A channel row is its name, items
    #: and staged items (``None`` when empty, else a list of frozen items),
    #: then its five counters; a component row is its name and its state.
    _SNAPSHOT_KEYS = ("cycle", "channels", "components", "dirty", "cycles_skipped", "skip_events")

    def snapshot_state(self, fr) -> Dict[str, Any]:
        """This simulator's complete mutable state for ``repro.snapshot``:
        the clock, every channel's contents and exact statistics, the dirty
        list, and each component's declared fields."""
        from repro.snapshot.engine import SnapshotError

        if self.mid_cycle:
            raise SnapshotError("cannot snapshot mid-cycle; capture between run()/step() calls")
        if self._program is not None:
            self._program.flush_ticks()  # per-slot tick counts into the components
        channels = []
        for ch in self._channels:
            try:
                items = [fr.freeze(x) for x in ch._items] if ch._items else None
                staged = [fr.freeze(x) for x in ch._staged] if ch._staged else None
            except SnapshotError as exc:
                raise SnapshotError(f"channel {ch.name!r} holds an unfreezable item: {exc}") from None
            channels.append((ch.name, items, staged, ch._pop_count, ch.total_pushed,
                             ch.total_popped, ch.occupancy_accum, ch.cycles_observed))
        index = {id(ch): i for i, ch in enumerate(self._channels)} if self._dirty_channels else {}
        return {
            "cycle": self.cycle,
            "scheduling": self.scheduling,
            "channels": channels,
            "components": [(c.name, fr.freeze_attrs(c)) for c in self._components],
            "dirty": [index[id(ch)] for ch in self._dirty_channels],
            "cycles_skipped": self.cycles_skipped,
            "skip_events": self.skip_events,
        }

    def check_state(self, state: Any, th) -> None:
        """Refuse a :meth:`snapshot_state` payload of another skeleton or
        shape before :meth:`restore_state` writes anything."""
        from repro.snapshot.engine import SnapshotError

        def malformed(what: str) -> SnapshotError:
            return SnapshotError(f"malformed snapshot: {what}")

        if not isinstance(state, dict) or any(k not in state for k in self._SNAPSHOT_KEYS):
            raise malformed(f"sim state must be a dict with keys {self._SNAPSHOT_KEYS}")
        for key, arity, have in (("components", 2, self._components), ("channels", 8, self._channels)):
            rows = state[key]
            if not isinstance(rows, list) or not all(
                    isinstance(row, tuple) and len(row) == arity for row in rows):
                raise malformed(f"{key} rows must be {arity}-tuples")
            if [row[0] for row in rows] != [x.name for x in have]:
                raise SnapshotError(
                    f"{key} skeleton mismatch: snapshot has {len(rows)}, design has "
                    f"{len(have)} (or names differ) — rebuild with the identical config")
        counters, items = [state[k] for k in ("cycle", "cycles_skipped", "skip_events")], []
        for row in state["channels"]:
            for frozen in row[1:3]:
                if frozen is not None and type(frozen) is not list:
                    raise malformed("channel items must be lists")
                items += frozen or ()
            counters += row[3:]
        th.check_all(items)
        if set(map(type, counters)) != {int}:
            raise malformed("cycle and channel counters must be ints")
        cycle = state["cycle"]
        for name, items, staged, pop_count, pushed, popped, _accum, observed in state["channels"]:
            held = len(items or ()) - pop_count + len(staged or ())
            if pushed - popped != held or pop_count > len(items or ()) or observed > cycle:
                raise malformed(
                    f"channel {name!r} counters disagree with its contents or the clock "
                    f"(pushed {pushed} - popped {popped} against {held} held, "
                    f"{pop_count} pops, {observed} cycles observed by cycle {cycle})")
        dirty = state["dirty"]
        if type(dirty) is not list or not set(map(type, dirty)) <= {int} or not all(
                0 <= i < len(self._channels) for i in dirty):
            raise malformed("dirty must list channel indices")
        for comp, (_name, st) in zip(self._components, state["components"]):
            th.check_attrs(type(comp), st)

    def restore_state(self, state: Dict[str, Any], th) -> None:
        """Write a :meth:`check_state`-checked payload into this simulator."""
        # Discard any compiled tick program *before* touching component
        # state: its unfolded per-slot tick counts must not land on top of
        # restored counters.  The next run() recompiles, and its first entry
        # wakes all.  The run caches go too (a tick closure binds state
        # objects the restore may replace); their next use rebuilds them.
        self._program = None
        self._subs_stale = True
        for comp, (_name, st) in zip(self._components, state["components"]):
            comp_vars = vars(comp)
            for cache in RUN_CACHES:
                if cache in comp_vars and hasattr(type(comp), cache):
                    del comp_vars[cache]
            th.thaw_attrs(comp, st)
        cycle = state["cycle"]
        for ch, row in zip(self._channels, state["channels"]):
            ch._items[:] = th.thaw_items(row[1], ch._items) if row[1] else ()
            ch._staged[:] = th.thaw_items(row[2], ch._staged) if row[2] else ()
            # total_pushed is derived: check_state refused a row whose
            # stored value disagrees with the contents.
            ch._pop_count, _pushed, popped, accum, observed = row[3:]
            ch._popped = popped - ch._pop_count
            ch._anchor = cycle - observed
            ch._area = accum - len(ch._items) * observed
            ch._dirty = False
        self.cycle = cycle
        self.cycles_skipped = state["cycles_skipped"]
        self.skip_events = state["skip_events"]
        # The saved dirty list, then any other channel with uncommitted
        # traffic: a naive run's payload listed none before both schedules
        # kept the list.
        dirty = self._dirty_channels
        dirty.clear()
        for ch in [self._channels[i] for i in state["dirty"]] + self._channels:
            if not ch._dirty and (ch._staged or ch._pop_count):
                ch._dirty = True
                dirty.append(ch)

    # -- deadlock diagnosis ---------------------------------------------------
    def state_dump(self) -> Dict[str, Any]:
        """Structured snapshot of everything that could explain a stall.

        Collected when a ``run()`` budget expires with its predicate pending:
        non-empty channel occupancies, each component's
        :meth:`Component.debug_state`, and (under the compiled schedule) the
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
        if self._program is not None:
            dump["wake_heap"], dump["woken"] = self._program.wake_dump()
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
