"""Compiled tick-program backend for ``Simulator(scheduling="compiled")``.

The production loop: an event-driven schedule in which a component is ticked
only when a committed push or pop on one of its wake channels, a matured
``next_event`` hint or a ``request_wake`` call wakes it, and in which only
dirty channels commit.  Interpreted, such a schedule would pay generic Python
dispatch for every woken component every cycle: a bound ``tick`` call through
the class, a ``next_event`` call, a subscription-dict lookup per dirty
channel, and method calls inside each tick for every ``can_push``/``can_pop``
probe.  The program removes that interpretation layer:

* **Closure dispatch** — a class that defines ``compile_tick()`` (the DRAM
  controller, the NoC buffer node and pipe, the ID compressor, ``Reader``
  and ``Writer``) has its closure called directly, with channel endpoints
  and constants captured as locals.  It is the instance's one cached body
  (:meth:`~repro.sim.kernel.Component.tick_body`), the same one ``naive``
  steps through :meth:`~repro.sim.kernel.Component.tick`.  Other
  components run their bound ``tick``, and every hint is the component's
  ``next_event``.

* **One slot per component** — slot ``i`` is the component registered
  ``i``-th (its ``_sched_index``): one heap entry, one wake subscription,
  one dispatch each.  Woken slots tick in index order, so the global tick
  order — and therefore the order channels first become dirty, i.e. the
  channel-commit order — is exactly the naive order.

* **Flat commit drain** — dirty channels commit through
  :func:`~repro.sim.kernel.commit_dirty`'s loop, inlined, which also wakes
  subscriber slots from pre-computed tuples stored on the channel
  (``_push_subs`` for a committed push, ``_pop_subs`` for a committed pop),
  with no dict lookups.  By default a component subscribes to *both* edges
  of every ``wake_channels()`` entry — the rule a component that consumes
  one of several pending items per tick (an
  :class:`~repro.noc.axi_node.AxiBufferNode` forwarding one AR per cycle)
  needs: its *own* pop/push re-wakes it to drain the backlog on schedule.  A class may instead declare which edge of which channel it is
  sensitive to (:meth:`~repro.sim.kernel.Component.wake_edges`) and cover
  its backlog in ``next_event``; splitting the edges for everybody was
  tried and is unsound, the opt-in form is exact.

Determinism contract: a compiled run produces the same cycle count, the same
channel statistics (``total_pushed``/``total_popped``/``occupancy_accum``/
``cycles_observed``) and the same stable metric dump as the naive oracle.
Only volatile metrics (tick/skip accounting, trace event counts) and the
wall clock differ.  The differential harness in
``tests/test_fast_forward.py`` and the property tests in
``tests/test_compiled_kernel.py`` enforce this bit-for-bit.

``Component.request_wake`` matches naive order: a wake for a slot later in
the dispatch order that has not ticked this cycle is injected into the
current cycle (naive would have ticked it after the requester); anything
else is woken next cycle.  This is how non-channel coupling such as
:class:`repro.memory.scratchpad.Memory`'s ``on_activity`` hook stays honoured.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Callable, Iterable, List, Optional, Tuple

from repro.sim.kernel import NEVER, Component, book_ns


class CompiledProgram:
    """A tick program compiled from a :class:`~repro.sim.kernel.Simulator`.

    Built lazily at ``run()`` and rebuilt whenever components or channels
    were added since (``Simulator._subs_stale``), so post-elaboration
    additions (the runtime server, testbench probes) are folded in.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        components: List[Component] = list(sim._components)
        self.components = components

        # -- wake membership and channel subscriptions ----------------------
        # Each component subscribes to the channels whose committed push
        # wakes it and to those whose committed pop does.  Without a
        # wake_edges() declaration both are the full wake_channels() set,
        # under which a component draining a backlog one item per tick is
        # re-woken by its *own* push/pop.  An instance-patched tick or hint
        # (fault hang injection) voids the class's declaration: the patch
        # need not keep the class's backlog promise.  Each channel stores two
        # flat tuples of subscriber slots (push edge, pop edge), so the
        # commit drain wakes without a dict lookup.
        for chan in sim._channels:
            chan._push_subs = chan._pop_subs = ()
        push_subs: dict = {}  # channel -> subscriber slots, per edge
        pop_subs: dict = {}
        for idx, comp in enumerate(components):
            comp._sched_index = idx
            comp._wake_hook = self._request_wake
            comp_vars = vars(comp)
            patched = "tick" in comp_vars or "next_event" in comp_vars
            edges = None if patched else comp.wake_edges()
            if edges is None:
                on_push = on_pop = list(comp.wake_channels())
            else:
                on_push, on_pop = edges
            for subs, chans in ((push_subs, on_push), (pop_subs, on_pop)):
                for chan in chans:
                    subs.setdefault(chan, set()).add(idx)
        for chan, slots in push_subs.items():
            chan._push_subs = tuple(sorted(slots))
        for chan, slots in pop_subs.items():
            # Share the tuple when both edges wake the same slots (the default).
            chan._pop_subs = (
                chan._push_subs
                if slots == push_subs.get(chan)
                else tuple(sorted(slots))
            )

        # -- per-slot tick and hint functions --------------------------------
        # An instance-patched tick (fault hang injection) must win over the
        # class's closure.
        self._tick_fns: List[Callable[[int], None]] = [
            comp.tick_body()
            if "tick" not in vars(comp) and hasattr(comp, "compile_tick")
            else comp.tick
            for comp in components
        ]
        self._hint_fns = [self._hint_fn(comp) for comp in components]

        # -- scheduler state ------------------------------------------------
        n_slots = len(components)
        self._slot_ticks = [0] * n_slots
        self._wake_heap: List[Tuple[int, int]] = []
        self._woken: set = set()
        self._ready: Optional[List[int]] = None  # set mid-cycle only
        self._ticking = -1  # the slot whose tick runs while _ready is set
        self._fresh = True  # no run yet: the first entry wakes every slot

    @staticmethod
    def _hint_fn(comp):
        """The wake hint evaluated after each tick of ``comp``: its
        ``next_event``, or ``None`` to elide the call for a ``wake_only``
        class.  An instance-level ``next_event`` (fault hang injection) is
        always consulted, since the patched hint is exactly how hangs reach
        the scheduler.
        """
        if comp.wake_only and "next_event" not in vars(comp):
            return None
        return comp.next_event

    # -- wake plumbing -------------------------------------------------------
    def _request_wake(self, comp: Component) -> None:
        """Wake ``comp``'s slot at the earliest cycle that matches naive order.

        Called (via :meth:`Component.request_wake`) when one component
        mutates another's non-channel state: mid-cycle, a slot later in the
        dispatch order that has not ticked yet joins this cycle (naive would
        tick it after the requester); otherwise it wakes next cycle (naive
        ticked it before, necessarily as a no-op on the pre-mutation state).
        """
        slot = comp._sched_index
        if slot < 0:
            return
        ready = self._ready
        if ready is None or slot <= self._ticking:
            self._woken.add(slot)
            return
        # Slots tick in ascending order, so a later one has not ticked yet:
        # inject it into the still-unvisited tail of this cycle's dispatch
        # order (kept sorted and duplicate-free; the main loop iterates it
        # and sees the insertion).
        pos = bisect_left(ready, slot)
        if pos == len(ready) or ready[pos] != slot:
            ready.insert(pos, slot)

    def flush_ticks(self, slots: Optional[Iterable[int]] = None) -> None:
        """Fold per-slot tick counts into ``Component._ticks_executed``.

        The hot loop counts ticks per slot (a list-index increment); the
        per-component counters are reconciled only when read: one slot by
        ``Simulator.component_ticks``, all (``None``) by snapshot capture and
        a program rebuild.
        """
        slot_ticks = self._slot_ticks
        components = self.components
        for slot in range(len(components)) if slots is None else slots:
            count = slot_ticks[slot]
            if count:
                slot_ticks[slot] = 0
                components[slot]._ticks_executed += count

    def wake_dump(self):
        """(wake_heap, woken) with component names, for deadlock dumps."""
        comps = self.components
        heap = sorted((cyc, comps[slot].name) for cyc, slot in self._wake_heap)
        woken = sorted(comps[slot].name for slot in self._woken)
        return heap, woken

    def prepare(self) -> None:
        """Apply ``Simulator._wake_all_on_entry`` at ``run()`` entry.

        The wake heap and woken set carry over from the previous run; every
        slot wakes only on this program's first run or after a ``step()``.
        """
        n_slots = len(self.components)
        if self.sim._wake_all_on_entry(self._fresh, n_slots):
            self._fresh = False
            self._woken.update(range(n_slots))

    # -- the main loop -------------------------------------------------------
    def run(
        self, deadline: int, max_cycles: int, until: Optional[Callable[[], bool]]
    ) -> int:
        sim = self.sim
        self.prepare()
        tick_fns = self._tick_fns
        hint_fns = self._hint_fns
        slot_ticks = self._slot_ticks
        wake_heap = self._wake_heap
        woken = self._woken
        woken_add = woken.add
        woken_update = woken.update
        dirty = sim._dirty_channels
        profile = sim.profile_enabled
        tick_profile = sim.tick_profile
        components = self.components
        clock = time.perf_counter_ns
        pred = bool(until()) if until is not None else False
        cycle = first = sim.cycle
        while cycle < deadline:
            if pred:
                break
            while wake_heap and wake_heap[0][0] <= cycle:
                woken_add(heappop(wake_heap)[1])
            # The entry cycle is stepped even if nobody wakes: it commits
            # what the host staged between runs, exactly when naive would.
            if not woken and cycle != first:
                # Nothing can act before the earliest scheduled wake:
                # model state (and the predicate) is provably frozen.
                target = wake_heap[0][0] if wake_heap else deadline
                if target > deadline:
                    target = deadline
                sim.cycles_skipped += target - cycle
                sim.skip_events += 1
                sim.cycle = cycle = target
                continue
            order = sorted(woken)
            woken.clear()
            self._ready = order
            cy1 = cycle + 1
            # Same-cycle wakes (request_wake) insert into the unvisited tail
            # of the sorted order, which the list iterator then reaches.
            for slot in order:
                self._ticking = slot
                if profile:
                    t0 = clock()
                    tick_fns[slot](cycle)
                    book_ns(tick_profile, components[slot].name, clock() - t0)
                else:
                    tick_fns[slot](cycle)
                slot_ticks[slot] += 1
                hint_fn = hint_fns[slot]
                if hint_fn is not None:
                    hint = hint_fn(cy1)
                    if hint is None or hint <= cy1:
                        woken_add(slot)
                    elif hint != NEVER:
                        heappush(wake_heap, (int(hint), slot))
            self._ready = None
            if dirty:
                if profile:
                    t0 = clock()
                for chan in dirty:
                    # commit_dirty's body, waking each edge's subscribers
                    # (a dirty channel committed at least one of the two).
                    n = chan._pop_count
                    staged = chan._staged
                    k = len(staged)
                    if n != k:
                        chan._area += (n - k) * (cy1 - chan._anchor)
                    if n:
                        del chan._items[:n]
                        chan._popped += n
                        chan._pop_count = 0
                        woken_update(chan._pop_subs)
                    if k:
                        chan._items += staged
                        staged.clear()
                        woken_update(chan._push_subs)
                    chan._dirty = False
                dirty.clear()
                if profile:
                    book_ns(tick_profile, "(kernel)/commit", clock() - t0)
            sim.cycle = cycle = cycle + 1
            pred = bool(until()) if until is not None else False
        if cycle >= deadline and until is not None and not pred:
            sim._raise_deadlock(max_cycles)
        return cycle
