"""Compiled tick-program backend for ``Simulator(scheduling="compiled")``.

The selective scheduler (``repro.sim.kernel``) already runs an event-driven
schedule, but it still pays generic Python dispatch for every woken component
every cycle: a bound ``tick`` call through the class, a ``next_event`` call, a
subscription-dict lookup per dirty channel, and method calls inside each tick
for every ``can_push``/``can_pop`` probe.  The compiled backend removes that
interpretation layer while executing the *same* schedule:

* **Closure specialisation** — at program build each component is asked for
  ``compile_tick()``: a specialised closure with its channel endpoints,
  metric counters (:class:`repro.obs.registry.Counter` objects are bound
  directly so updates are ``ctr.value += 1``) and timing constants captured
  as locals, making the same decisions as the interpreted ``tick`` in the
  same order.  Components without the hook run their plain bound ``tick``.

* **Chain fusion** — runs of *consecutively registered* components with
  *identical* wake subscription signatures (the same pair of push- and
  pop-sensitive channel sets) are fused into one scheduling slot: one heap
  entry, one wake subscription, one dispatch.  Identical signatures mean
  the members are always co-woken, so group dispatch adds zero spurious
  ticks by construction (overlap-based fusion was measured a net loss:
  members woken through unshared channels dragged the whole group awake).
  Fused members tick in registration-index order, and because the run is
  contiguous the global tick order — and therefore the order channels first
  become dirty, i.e. the channel-commit order — is exactly the naive order.
  A spurious member tick (e.g. from a ``request_wake`` aimed at one member)
  is safe by the ``next_event`` no-op contract.

* **Flat commit drain** — dirty channels commit through an inlined loop that
  fuses ``sync_observations`` + ``commit`` into direct attribute arithmetic
  and wakes subscriber slots from pre-computed tuples stored on the channel
  (``_push_subs`` for a committed push, ``_pop_subs`` for a committed pop),
  with no dict lookups.  By default a component subscribes to *both* edges
  of every ``wake_channels()`` entry — the selective scheduler's rule, and
  the one a component that consumes one of several pending items per tick
  (an :class:`~repro.noc.axi_node.AxiBufferNode` forwarding one AR per
  cycle) needs: its *own* pop/push re-wakes it to drain the backlog on
  schedule.  A class may instead declare which edge of which channel it is
  sensitive to (:meth:`~repro.sim.kernel.Component.wake_edges`) and cover
  its backlog in ``next_event``; splitting the edges for everybody was
  tried and is unsound, the opt-in form is exact.

Determinism contract: a compiled run produces the same cycle count, the same
channel statistics (``total_pushed``/``total_popped``/``occupancy_accum``/
``cycles_observed``) and the same stable metric dump as the naive, fast-
forward and selective schedules.  Only volatile metrics (tick/skip
accounting, trace event counts) and the wall clock differ.  The four-way
differential harness in ``tests/test_fast_forward.py`` and the property
tests in ``tests/test_compiled_kernel.py`` enforce this bit-for-bit.

``Component.request_wake`` keeps its selective semantics: a wake for a slot
later in the dispatch order that has not ticked this cycle is injected into
the current cycle (naive would have ticked it after the requester); anything
else — including a member of the currently executing fused slot that already
ticked — is woken next cycle.  This is how non-channel coupling such as
:class:`repro.memory.scratchpad.Memory`'s ``on_activity`` hook stays honoured.
"""

from __future__ import annotations

import time
from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.kernel import NEVER, Component

#: Cap on members merged into one fused scheduling slot.  Fused members are
#: always co-woken (identical wake signatures), so the cap is a safety bound
#: on dispatch-group size, not a spurious-tick tradeoff.
MAX_FUSED = 8


def _hint_is_constant_never(comp: Component) -> bool:
    """True when the component's hint may be elided entirely.

    ``wake_only`` classes declare ``next_event`` constant at :data:`NEVER`;
    an instance-level ``next_event`` (fault hang injection) re-enables
    evaluation, since the patched hint is exactly how hangs reach the
    scheduler.
    """
    return comp.wake_only and "next_event" not in vars(comp)


class CompiledProgram:
    """A tick program compiled from a :class:`~repro.sim.kernel.Simulator`.

    Built lazily at ``run()`` and rebuilt whenever components or channels
    were added since (``Simulator._subs_stale``), so post-elaboration
    additions (the runtime server, testbench probes) are folded in exactly
    like a selective subscription rebuild.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        components: List[Component] = list(sim._components)
        self.components = components

        # -- per-component wake membership ----------------------------------
        # wake_on[i] = (channels whose committed push wakes component i,
        # channels whose committed pop does).  Without a wake_edges()
        # declaration both are the full wake_channels() set — the selective
        # scheduler's rule, under which a component draining a backlog one
        # item per tick is re-woken by its *own* push/pop.  An instance-
        # patched tick or hint (fault hang injection) voids the class's
        # declaration: the patch need not keep the class's backlog promise.
        wake_on: List[Tuple[List[Any], List[Any]]] = []
        fusable: List[bool] = []
        for idx, comp in enumerate(components):
            comp._sched_index = idx
            comp._wake_hook = self._request_wake
            comp_vars = vars(comp)
            patched = "tick" in comp_vars or "next_event" in comp_vars
            edges = None if patched else comp.wake_edges()
            if edges is None:
                on_push = on_pop = list(comp.wake_channels())
            else:
                on_push, on_pop = map(list, edges)
            wake_on.append((on_push, on_pop))
            hinted = (
                type(comp).next_event is not Component.next_event or comp.wake_only
            )
            fusable.append(hinted and bool(on_push or on_pop) and not patched)

        # -- fusion: partition into contiguous scheduling slots ------------
        # Fuse a component into the preceding slot only when its wake
        # subscription signature is *identical* to that slot's: the members
        # are then always co-woken, so ticking the whole group whenever any
        # member wakes adds zero spurious ticks.  (Overlap-based fusion was
        # measured a net loss on the dense 32-core benchmark: members woken
        # through non-shared channels dragged the rest of the group awake.)
        signatures = [
            (frozenset(map(id, on_push)), frozenset(map(id, on_pop)))
            for on_push, on_pop in wake_on
        ]
        # Profiled runs disable fusion entirely: a fused slot is one dispatch,
        # so its wall-clock sample cannot be split among members and would
        # mis-attribute self-time to a "(fused)/..." pseudo-component.  The
        # profiler is volatile instrumentation — cycle results are identical
        # either way — so trading fusion's dispatch saving for correct
        # per-component attribution is free in model terms.
        fuse_ok = not sim.profile_enabled
        index_groups: List[List[int]] = []
        for idx in range(len(components)):
            if (
                index_groups
                and fuse_ok
                and fusable[idx]
                and fusable[index_groups[-1][-1]]
                and len(index_groups[-1]) < MAX_FUSED
                and signatures[idx] == signatures[index_groups[-1][-1]]
            ):
                index_groups[-1].append(idx)
            else:
                index_groups.append([idx])
        self.groups: List[List[Component]] = [
            [components[i] for i in g] for g in index_groups
        ]
        for slot, group in enumerate(self.groups):
            for comp in group:
                comp._cslot = slot

        # -- channel subscriptions ------------------------------------------
        # Two flat tuples of subscriber slots per channel (push edge, pop
        # edge), stored on the channel itself so the commit drain wakes
        # without a dict lookup.
        for chan in sim._channels:
            chan._push_subs = chan._pop_subs = ()
        push_subs: dict = {}  # channel -> subscriber slots, per edge
        pop_subs: dict = {}
        for comp, (on_push, on_pop) in zip(components, wake_on):
            for subs, chans in ((push_subs, on_push), (pop_subs, on_pop)):
                for chan in chans:
                    subs.setdefault(chan, set()).add(comp._cslot)
        for chan, slots in push_subs.items():
            chan._push_subs = tuple(sorted(slots))
        for chan, slots in pop_subs.items():
            # Share the tuple when both edges wake the same slots (the default).
            chan._pop_subs = (
                chan._push_subs
                if slots == push_subs.get(chan)
                else tuple(sorted(slots))
            )

        # -- per-slot tick and hint closures -------------------------------
        tick_fns: List[Callable[[int], None]] = []
        hint_fns: List[Optional[Callable[[int], Optional[float]]]] = []
        labels: List[str] = []
        specialized: List[str] = []
        for group in self.groups:
            member_fns = []
            for comp in group:
                fn = None
                # An instance-patched tick (fault hang injection) must win
                # over any class-level specialisation.
                if "tick" not in vars(comp):
                    hook = getattr(comp, "compile_tick", None)
                    if hook is not None:
                        fn = hook()
                        if fn is not None:
                            specialized.append(comp.name)
                member_fns.append(fn if fn is not None else comp.tick)
            if len(group) == 1:
                comp = group[0]
                tick_fns.append(member_fns[0])
                hint_fns.append(self._hint_fn(comp))
                labels.append(comp.name)
            else:
                tick_fns.append(self._fused_tick(group, member_fns))
                hint_fns.append(self._fused_hint(group))
                labels.append(f"(fused)/{group[0].name}(+{len(group) - 1})")
        self._tick_fns = tick_fns
        self._hint_fns = hint_fns
        self._labels = labels
        self.specialized = specialized  # component names using compile_tick

        # -- scheduler state ------------------------------------------------
        n_slots = len(self.groups)
        self._last_tick = [-1] * n_slots
        self._slot_ticks = [0] * n_slots
        self._wake_heap: List[Tuple[int, int]] = []
        self._woken: set = set()
        self._ready: Optional[List[int]] = None
        self._ready_pos = 0
        self._cur_slot = -1
        self._cmember = -1
        self._fresh = True  # no run yet: the first entry wakes every slot

    @staticmethod
    def _hint_fn(comp):
        """The wake hint evaluated after each tick of ``comp``.

        ``None`` elides the call entirely (constant-:data:`NEVER` classes);
        otherwise a ``compile_hint()`` closure is preferred when the class
        offers one.  A compiled hint may be *conservative* — waking no later
        than ``next_event`` would, possibly earlier — because early wakes are
        no-op ticks under the hint contract; it must still return
        :data:`NEVER` when the component is genuinely idle so quiescent jumps
        stay reachable.  An instance-level ``next_event`` (fault hang
        injection) disables both elision and specialisation.
        """
        if _hint_is_constant_never(comp):
            return None
        if "next_event" not in vars(comp):
            hook = getattr(comp, "compile_hint", None)
            if hook is not None:
                fn = hook()
                if fn is not None:
                    return fn
        return comp.next_event

    # -- fused slot helpers -------------------------------------------------
    def _fused_tick(self, group, fns):
        pairs = tuple(zip([m._sched_index for m in group], fns))

        def tick(cycle, self=self, pairs=pairs):
            for idx, fn in pairs:
                self._cmember = idx
                fn(cycle)

        return tick

    def _fused_hint(self, group):
        hint_fns = [
            fn for fn in (self._hint_fn(m) for m in group) if fn is not None
        ]
        if not hint_fns:
            return None
        if len(hint_fns) == 1:
            return hint_fns[0]

        def hint(cycle, hint_fns=hint_fns):
            best = NEVER
            for fn in hint_fns:
                h = fn(cycle)
                if h is None:
                    return None
                if h < best:
                    best = h
            return best

        return hint

    # -- wake plumbing -------------------------------------------------------
    def _request_wake(self, comp: Component) -> None:
        """Compiled analogue of ``Simulator._request_wake`` (same semantics)."""
        slot = comp._cslot
        if slot < 0:
            return
        ready = self._ready
        if ready is None:
            self._woken.add(slot)
            return
        cur = self._cur_slot
        if slot > cur and self._last_tick[slot] != self.sim.cycle:
            # Inject into the still-unvisited tail of this cycle's dispatch
            # order (kept sorted; the main loop walks it by index).
            insort(ready, slot, self._ready_pos)
        elif (
            slot == cur
            and len(self.groups[slot]) > 1
            and comp._sched_index > self._cmember
        ):
            pass  # later member of the currently executing fused slot: it
            # ticks this cycle anyway, in naive order, after the requester
        else:
            self._woken.add(slot)

    def flush_ticks(self, slots: Optional[Iterable[int]] = None) -> None:
        """Fold per-slot tick counts into ``Component._ticks_executed``.

        The hot loop counts ticks per slot (a list-index increment); the
        per-component counters are reconciled only when read: one slot by
        ``Simulator.component_ticks``, all (``None``) by snapshot capture and
        a program rebuild.
        """
        slot_ticks = self._slot_ticks
        groups = self.groups
        for slot in range(len(groups)) if slots is None else slots:
            count = slot_ticks[slot]
            if count:
                slot_ticks[slot] = 0
                for comp in groups[slot]:
                    comp._ticks_executed += count

    def wake_dump(self):
        """(wake_heap, woken) with slot labels, for deadlock dumps."""
        heap = sorted((cyc, self._labels[slot]) for cyc, slot in self._wake_heap)
        woken = sorted(self._labels[slot] for slot in self._woken)
        return heap, woken

    def prepare(self) -> None:
        """Apply ``Simulator._wake_all_on_entry`` at ``run()`` entry.

        The wake heap and woken set carry over from the previous run; every
        slot wakes only on this program's first run or after a ``step()``.
        """
        n_slots = len(self.groups)
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
        last_tick = self._last_tick
        slot_ticks = self._slot_ticks
        wake_heap = self._wake_heap
        woken = self._woken
        woken_add = woken.add
        woken_update = woken.update
        dirty = sim._dirty_channels
        profile = sim.profile_enabled
        tick_profile = sim.tick_profile
        labels = self._labels
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
            i = 0
            # Walk the sorted dispatch order by index; same-cycle wakes
            # (request_wake) insort into the unvisited tail, so the loop
            # bound is re-read each iteration.
            while i < len(order):
                slot = order[i]
                i += 1
                self._ready_pos = i
                if last_tick[slot] == cycle:
                    continue  # duplicate wake this cycle
                last_tick[slot] = cycle
                self._cur_slot = slot
                if profile:
                    t0 = clock()
                    tick_fns[slot](cycle)
                    dt = clock() - t0
                    entry = tick_profile.get(labels[slot])
                    if entry is None:
                        tick_profile[labels[slot]] = [dt, 1]
                    else:
                        entry[0] += dt
                        entry[1] += 1
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
            self._cur_slot = -1
            if dirty:
                if profile:
                    t0 = clock()
                for chan in dirty:
                    # sync_observations + commit, fused and inlined: this
                    # commit plus the ones elided since the last.
                    items = chan._items
                    n = cycle + 1 - chan._anchor - chan._obs
                    chan._occ += len(items) * n
                    chan._obs += n
                    # Wake each edge's subscribers (a dirty channel
                    # committed at least one of the two).
                    if chan._pop_count:
                        del items[: chan._pop_count]
                        chan._pop_count = 0
                        woken_update(chan._pop_subs)
                    staged = chan._staged
                    if staged:
                        items += staged
                        staged.clear()
                        woken_update(chan._push_subs)
                    chan._dirty = False
                dirty.clear()
                if profile:
                    dt = clock() - t0
                    entry = tick_profile.get("(kernel)/commit")
                    if entry is None:
                        tick_profile["(kernel)/commit"] = [dt, 1]
                    else:
                        entry[0] += dt
                        entry[1] += 1
            sim.cycle = cycle = cycle + 1
            pred = bool(until()) if until is not None else False
        if cycle >= deadline and until is not None and not pred:
            sim._raise_deadlock(max_cycles)
        return cycle
