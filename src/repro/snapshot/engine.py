"""Exact freeze/thaw of live simulation state (the ``repro.snapshot`` core).

A snapshot is *state*, never *structure*: the object graph of a design
(components, channels, registry bindings, compiled tick programs, fault
hooks) is rebuilt deterministically by re-elaborating the same config, and
the snapshot then overwrites every mutable field so that ``restore(snap);
run(N)`` is bit-identical — cycles, stable metric dumps, fault fingerprints
— to the uninterrupted run under all four scheduling backends.

Why not pickle the :class:`~repro.sim.Simulator` wholesale?  The live graph
is full of unpicklables that are *structural*: registry ``BoundMetric``
lambdas closing over model containers, compiled-backend closures, fault
hooks patched over instance ``tick`` methods, host response callbacks.  The
freezer therefore walks the graph and replaces

* infrastructure objects (components, channels, the simulator, registry,
  tracer, span tracker, fault state/plan) with index-based :class:`_Ref`
  markers resolved against the rebuilt skeleton;
* transient model objects (in-flight AXI beats, DRAM column requests,
  pending commands) with :class:`_Obj` markers rebuilt via
  ``cls.__new__`` + ``object.__setattr__``;
* callables with a skip sentinel — they are structure, recreated by the
  rebuild (a container holding a callable is skipped whole, leaving the
  live one untouched).

Thawing is **two-pass**.  Registry bindings capture model containers by
identity (``lambda q=q: len(q)``), so restore must mutate the *live*
objects in place rather than swap in fresh ones.  A pairing pass first
walks the frozen and live trees together and pre-seeds the memo with
``frozen marker -> live object`` wherever a type-matching in-place target
exists; the thaw pass then resolves aliased references (a DRAM bank reached
both through ``controller.banks[i]`` and a scheduler entry) to the same
identity-preserved live object regardless of traversal order.
"""

from __future__ import annotations

import functools
import importlib
import random
import types
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import BoundMetric, Counter, Gauge, Histogram

#: Bumped on any change to the capture format or captured field set.  A
#: snapshot's version participates in farm checkpoint fingerprints, so a
#: version bump silently invalidates stale checkpoint files instead of
#: restoring garbage into a newer model.
SNAPSHOT_VERSION = 2


class SnapshotError(RuntimeError):
    """Snapshot capture/restore failed (skeleton mismatch, bad payload...)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible ``SNAPSHOT_VERSION``."""


_PRIMITIVES = (type(None), bool, int, float, complex, str, bytes)

#: Callable types that are always structure, never state.
_CALLABLE_TYPES = (
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    types.BuiltinMethodType,
    functools.partial,
)

#: Scheduler wiring rebuilt by ``Simulator.add()``; excluded from generic
#: component capture (``_last_tick_cycle``/``_ticks_executed`` stay in).
SCHED_ATTRS = ("_sched_index", "_wake_hook", "_cslot")


class _Skip:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover — debug aid
        return "<snapshot:skip>"


#: Sentinel for unpicklable/structural values: restore leaves the live
#: attribute untouched.
_SKIP = _Skip()


class _Ref:
    """Reference to an infrastructure object, resolved against the skeleton."""

    __slots__ = ("kind", "key")

    def __init__(self, kind: str, key: Any = None) -> None:
        self.kind = kind
        self.key = key


class _Obj:
    """A transient object: class identity plus frozen attribute dict."""

    __slots__ = ("module", "qualname", "attrs")

    def __init__(self, module: str, qualname: str, attrs: Dict[str, Any]) -> None:
        self.module = module
        self.qualname = qualname
        self.attrs = attrs


class _Exc:
    """An exception instance (typed errors parked in futures survive restore)."""

    __slots__ = ("module", "qualname", "args", "attrs")

    def __init__(self, module: str, qualname: str, args: Any, attrs: Dict[str, Any]) -> None:
        self.module = module
        self.qualname = qualname
        self.args = args
        self.attrs = attrs


class _Rng:
    """``random.Random`` position (per-site fault RNGs must resume exactly)."""

    __slots__ = ("state",)

    def __init__(self, state: Any) -> None:
        self.state = state


class _Met:
    """Raw value of a registry metric, restored into the live object."""

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data: Any) -> None:
        self.kind = kind
        self.data = data


class _Bytes:
    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


class _ListS:
    __slots__ = ("items",)

    def __init__(self, items: List[Any]) -> None:
        self.items = items


class _TupleS:
    __slots__ = ("items",)

    def __init__(self, items: List[Any]) -> None:
        self.items = items


class _SetS:
    __slots__ = ("items", "frozen")

    def __init__(self, items: List[Any], frozen: bool = False) -> None:
        self.items = items
        self.frozen = frozen


class _DictS:
    __slots__ = ("pairs",)

    def __init__(self, pairs: List[Tuple[Any, Any]]) -> None:
        self.pairs = pairs


class _DequeS:
    __slots__ = ("items", "maxlen")

    def __init__(self, items: List[Any], maxlen: Optional[int]) -> None:
        self.items = items
        self.maxlen = maxlen


def _is_plain(obj: Any) -> bool:
    """Deeply immutable values usable as frozen dict keys."""
    if isinstance(obj, _PRIMITIVES):
        return True
    if isinstance(obj, tuple):
        return all(_is_plain(x) for x in obj)
    if isinstance(obj, frozenset):
        return all(_is_plain(x) for x in obj)
    return False


def _state_of(obj: Any) -> Dict[str, Any]:
    """Instance state: ``__dict__`` plus any ``__slots__`` up the MRO."""
    d = getattr(obj, "__dict__", None)
    state = dict(d) if d else {}
    for cls in type(obj).__mro__:
        slots = getattr(cls, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__") or name in state:
                continue
            try:
                state[name] = getattr(obj, name)
            except AttributeError:
                continue
    return state


class Freezer:
    """Converts a live object graph into a picklable marker tree."""

    def __init__(self) -> None:
        self._infra: Dict[int, _Ref] = {}
        self._memo: Dict[int, Any] = {}
        self._keep: List[Any] = []  # id()-stability for memo/infra keys
        self.skipped = 0

    def add_infra(self, obj: Any, kind: str, key: Any = None) -> None:
        self._infra[id(obj)] = _Ref(kind, key)
        self._keep.append(obj)

    # ------------------------------------------------------------- freeze
    def freeze(self, obj: Any) -> Any:
        if isinstance(obj, _PRIMITIVES):
            return obj
        ref = self._infra.get(id(obj))
        if ref is not None:
            return ref
        memo = self._memo.get(id(obj))
        if memo is not None:
            return memo
        if isinstance(obj, _CALLABLE_TYPES) or isinstance(obj, (type, types.ModuleType)):
            self.skipped += 1
            return _SKIP
        if isinstance(obj, (weakref.ReferenceType, memoryview)):
            self.skipped += 1
            return _SKIP
        if isinstance(obj, tuple):
            if all(isinstance(x, _PRIMITIVES) for x in obj):
                return obj
            items = [self.freeze(x) for x in obj]
            if any(x is _SKIP for x in items):
                self.skipped += 1
                return _SKIP
            return _TupleS(items)
        if isinstance(obj, (Counter, Gauge)):
            # Gauge subclasses Counter — test the subclass first.
            return self._memoize(obj, _Met("g" if isinstance(obj, Gauge) else "c", obj.value))
        if isinstance(obj, Histogram):
            data = (tuple(obj.buckets), list(obj.counts), obj.count, obj.total)
            return self._memoize(obj, _Met("h", data))
        if isinstance(obj, BoundMetric):
            self.skipped += 1
            return _SKIP
        if isinstance(obj, random.Random):
            return self._memoize(obj, _Rng(obj.getstate()))
        if isinstance(obj, bytearray):
            return self._memoize(obj, _Bytes(bytes(obj)))
        if isinstance(obj, list):
            marker = _ListS([])
            self._memoize(obj, marker)
            items = [self.freeze(x) for x in obj]
            if any(x is _SKIP for x in items):
                return self._contaminate(obj)
            marker.items = items
            return marker
        if isinstance(obj, deque):
            marker = _DequeS([], obj.maxlen)
            self._memoize(obj, marker)
            items = [self.freeze(x) for x in obj]
            if any(x is _SKIP for x in items):
                return self._contaminate(obj)
            marker.items = items
            return marker
        if isinstance(obj, dict):
            marker = _DictS([])
            self._memoize(obj, marker)
            pairs = []
            for k, v in obj.items():
                if not _is_plain(k):
                    return self._contaminate(obj)
                fv = self.freeze(v)
                if fv is _SKIP:
                    return self._contaminate(obj)
                pairs.append((k, fv))
            marker.pairs = pairs
            return marker
        if isinstance(obj, (set, frozenset)):
            if not all(_is_plain(x) for x in obj):
                self.skipped += 1
                return _SKIP
            try:
                items = sorted(obj)
            except TypeError:
                items = list(obj)
            return self._memoize(obj, _SetS(items, isinstance(obj, frozenset)))
        if isinstance(obj, BaseException):
            marker = _Exc(type(obj).__module__, type(obj).__qualname__, None, {})
            self._memoize(obj, marker)
            marker.args = self.freeze(tuple(obj.args))
            attrs = {}
            for name, val in _state_of(obj).items():
                if name == "args":
                    continue
                fv = self.freeze(val)
                if fv is not _SKIP:
                    attrs[name] = fv
            marker.attrs = attrs
            return marker
        # Generic transient object: class identity + frozen attrs.  A
        # skipped attribute is dropped (the live one is left alone); the
        # object itself always freezes.
        marker = _Obj(type(obj).__module__, type(obj).__qualname__, {})
        self._memoize(obj, marker)
        attrs = {}
        for name, val in _state_of(obj).items():
            fv = self.freeze(val)
            if fv is _SKIP:
                self.skipped += 1
                continue
            attrs[name] = fv
        marker.attrs = attrs
        return marker

    def freeze_attrs(self, obj: Any, exclude: Tuple[str, ...] = ()) -> Dict[str, Any]:
        """Freeze ``obj``'s fields into an attr dict (no class identity)."""
        skip = set(exclude) | set(getattr(type(obj), "_snapshot_exclude", ()))
        out = {}
        for name, val in _state_of(obj).items():
            if name in skip:
                continue
            fv = self.freeze(val)
            if fv is _SKIP:
                self.skipped += 1
                continue
            out[name] = fv
        return out

    # ------------------------------------------------------------ helpers
    def _memoize(self, obj: Any, marker: Any) -> Any:
        self._memo[id(obj)] = marker
        self._keep.append(obj)
        return marker

    def _contaminate(self, obj: Any) -> Any:
        """Container holding a callable: skip it whole, keep the live one."""
        self._memo[id(obj)] = _SKIP
        self.skipped += 1
        return _SKIP


def _resolve_class(module: str, qualname: str) -> type:
    try:
        target: Any = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise SnapshotError(f"cannot resolve class {module}:{qualname}: {exc}") from exc
    if not isinstance(target, type):
        raise SnapshotError(f"{module}:{qualname} is not a class")
    return target


class Thawer:
    """Rebuilds live state from a marker tree, preserving object identity.

    Call :meth:`pair`/:meth:`pair_attrs` over every (frozen, live) pair of
    the payload *first*, then thaw — the pairing memo is global, so aliases
    that cross component boundaries resolve correctly only if all pairing
    precedes all thawing.
    """

    def __init__(self) -> None:
        self._infra: Dict[Tuple[str, Any], Any] = {}
        self._done: Dict[int, Any] = {}
        self._paired: Dict[int, Any] = {}
        self._claimed: set = set()  # id(live) already owned by a marker
        self._visited: set = set()
        self._keep: List[Any] = []
        self.unresolved = 0

    def add_infra(self, kind: str, key: Any, obj: Any) -> None:
        self._infra[(kind, key)] = obj

    # ------------------------------------------------------------ pairing
    def pair(self, fz: Any, live: Any) -> None:
        if fz is None or fz is _SKIP or isinstance(fz, (_PRIMITIVES, _Ref)) or live is None:
            return
        key = id(fz)
        if key in self._visited:
            return
        self._visited.add(key)
        if isinstance(fz, _Obj):
            if (
                type(live).__qualname__ != fz.qualname
                or type(live).__module__ != fz.module
            ):
                return
            if not self._claim(key, live):
                return
            for name, sub in fz.attrs.items():
                try:
                    lv = getattr(live, name)
                except AttributeError:
                    continue
                self.pair(sub, lv)
        elif isinstance(fz, _ListS) and isinstance(live, list):
            if self._claim(key, live):
                for sub, lv in zip(fz.items, live):
                    self.pair(sub, lv)
        elif isinstance(fz, _DequeS) and isinstance(live, deque):
            if live.maxlen == fz.maxlen and self._claim(key, live):
                for sub, lv in zip(fz.items, live):
                    self.pair(sub, lv)
        elif isinstance(fz, _DictS) and isinstance(live, dict):
            if self._claim(key, live):
                for k, sub in fz.pairs:
                    if k in live:
                        self.pair(sub, live[k])
        elif isinstance(fz, _TupleS) and isinstance(live, tuple):
            for sub, lv in zip(fz.items, live):
                self.pair(sub, lv)
        elif isinstance(fz, _SetS) and isinstance(live, set) and not fz.frozen:
            self._claim(key, live)
        elif isinstance(fz, _Met) and isinstance(live, (Counter, Gauge, Histogram)):
            if _metric_kind(live) == fz.kind:
                self._claim(key, live)
        elif isinstance(fz, _Rng) and isinstance(live, random.Random):
            self._claim(key, live)
        elif isinstance(fz, _Bytes) and isinstance(live, bytearray):
            self._claim(key, live)

    def pair_attrs(self, live: Any, state: Dict[str, Any]) -> None:
        for name, sub in state.items():
            try:
                lv = getattr(live, name)
            except AttributeError:
                continue
            self.pair(sub, lv)

    def _claim(self, key: int, live: Any) -> bool:
        if key in self._paired:
            return True
        if id(live) in self._claimed:
            # A different marker already owns this live object; creating a
            # fresh instance for this one preserves checkpoint distinctness.
            return False
        self._paired[key] = live
        self._claimed.add(id(live))
        self._keep.append(live)
        return True

    # -------------------------------------------------------------- thaw
    def thaw(self, fz: Any) -> Any:
        if isinstance(fz, _PRIMITIVES):
            return fz
        if isinstance(fz, tuple):
            # Primitive-only tuples pass through freeze unchanged.
            return fz
        if fz is _SKIP:
            return _SKIP
        if isinstance(fz, _Ref):
            try:
                return self._infra[(fz.kind, fz.key)]
            except KeyError:
                raise SnapshotError(
                    f"snapshot references unknown infrastructure {fz.kind}:{fz.key} "
                    "(skeleton mismatch — was the design rebuilt with the same config?)"
                ) from None
        key = id(fz)
        if key in self._done:
            return self._done[key]
        if isinstance(fz, _TupleS):
            return tuple(self.thaw(x) for x in fz.items)
        if isinstance(fz, _Obj):
            target = self._paired.get(key)
            if target is None:
                cls = _resolve_class(fz.module, fz.qualname)
                target = cls.__new__(cls)
            self._done[key] = target
            for name, sub in fz.attrs.items():
                object.__setattr__(target, name, self.thaw(sub))
            return target
        if isinstance(fz, _ListS):
            target = self._paired.get(key)
            if target is None:
                target = []
            self._done[key] = target
            items = [self.thaw(x) for x in fz.items]
            target[:] = items
            return target
        if isinstance(fz, _DequeS):
            target = self._paired.get(key)
            if target is None:
                target = deque(maxlen=fz.maxlen)
            self._done[key] = target
            items = [self.thaw(x) for x in fz.items]
            target.clear()
            target.extend(items)
            return target
        if isinstance(fz, _DictS):
            target = self._paired.get(key)
            if target is None:
                target = {}
            self._done[key] = target
            pairs = [(k, self.thaw(v)) for k, v in fz.pairs]
            target.clear()
            target.update(pairs)
            return target
        if isinstance(fz, _SetS):
            if fz.frozen:
                out = frozenset(fz.items)
                self._done[key] = out
                return out
            target = self._paired.get(key)
            if target is None:
                target = set()
            self._done[key] = target
            target.clear()
            target.update(fz.items)
            return target
        if isinstance(fz, _Met):
            target = self._paired.get(key)
            if target is None:
                if fz.kind == "c":
                    target = Counter()
                elif fz.kind == "g":
                    target = Gauge()
                else:
                    target = Histogram(buckets=fz.data[0])
            self._done[key] = target
            _apply_metric(target, fz)
            return target
        if isinstance(fz, _Rng):
            target = self._paired.get(key)
            if target is None:
                target = random.Random()
            self._done[key] = target
            target.setstate(fz.state)
            return target
        if isinstance(fz, _Bytes):
            target = self._paired.get(key)
            if target is None:
                target = bytearray()
            self._done[key] = target
            target[:] = fz.data
            return target
        if isinstance(fz, _Exc):
            cls = _resolve_class(fz.module, fz.qualname)
            exc = cls.__new__(cls)
            self._done[key] = exc
            args = self.thaw(fz.args)
            BaseException.__init__(exc, *args)
            for name, sub in fz.attrs.items():
                object.__setattr__(exc, name, self.thaw(sub))
            return exc
        raise SnapshotError(f"unknown marker in snapshot payload: {type(fz).__name__}")

    def thaw_attrs(self, live: Any, state: Dict[str, Any]) -> None:
        for name, sub in state.items():
            if sub is _SKIP:
                continue
            object.__setattr__(live, name, self.thaw(sub))


def _metric_kind(metric: Any) -> str:
    if isinstance(metric, Histogram):
        return "h"
    return "g" if isinstance(metric, Gauge) else "c"


def _apply_metric(target: Any, fz: _Met) -> None:
    if fz.kind in ("c", "g"):
        target.value = fz.data
    else:
        buckets, counts, count, total = fz.data
        if tuple(target.buckets) != tuple(buckets):
            raise SnapshotError("histogram bucket layout changed between capture and restore")
        target.counts[:] = list(counts)
        target.count = count
        target.total = total


# ====================================================================== sim
def _register_sim_infra_fr(fr: Freezer, sim: Any) -> None:
    fr.add_infra(sim, "sim")
    if sim.registry is not None:
        fr.add_infra(sim.registry, "registry")
    if sim.tracer is not None:
        fr.add_infra(sim.tracer, "tracer")
    for i, comp in enumerate(sim._components):
        fr.add_infra(comp, "comp", i)
    for i, chan in enumerate(sim._channels):
        fr.add_infra(chan, "chan", i)


def _register_sim_infra_th(th: Thawer, sim: Any) -> None:
    th.add_infra("sim", None, sim)
    if sim.registry is not None:
        th.add_infra("registry", None, sim.registry)
    if sim.tracer is not None:
        th.add_infra("tracer", None, sim.tracer)
    for i, comp in enumerate(sim._components):
        th.add_infra("comp", i, comp)
    for i, chan in enumerate(sim._channels):
        th.add_infra("chan", i, chan)


def capture_sim_state(sim: Any, fr: Freezer) -> Dict[str, Any]:
    """Freeze one :class:`~repro.sim.Simulator`'s complete mutable state."""
    if getattr(sim, "_ready", None) is not None:
        raise SnapshotError("cannot snapshot mid-cycle; capture between run()/step() calls")
    if sim._selective:
        sim._sync_channel_stats()
    chan_index = {id(ch): i for i, ch in enumerate(sim._channels)}
    channels = []
    for ch in sim._channels:
        channels.append(
            {
                "name": ch.name,
                "items": fr.freeze(list(ch._items)),
                "staged": fr.freeze(list(ch._staged)),
                "pop_count": ch._pop_count,
                "total_pushed": ch.total_pushed,
                "total_popped": ch.total_popped,
                "occupancy_accum": ch.occupancy_accum,
                "cycles_observed": ch.cycles_observed,
            }
        )
    components = [
        {"name": comp.name, "state": comp.snapshot_state(fr)} for comp in sim._components
    ]
    sched = {
        "wake_heap": [tuple(entry) for entry in sim._wake_heap],
        "woken": sorted(sim._woken),
        "dirty": [chan_index[id(ch)] for ch in sim._dirty_channels],
        "quiescent": sim._quiescent,
        "cycles_skipped": sim.cycles_skipped,
        "skip_events": sim.skip_events,
    }
    return {
        "cycle": sim.cycle,
        "scheduling": sim.scheduling,
        "channels": channels,
        "components": components,
        "sched": sched,
    }


def _check_skeleton(sim: Any, state: Dict[str, Any]) -> None:
    want_comps = [c["name"] for c in state["components"]]
    have_comps = [c.name for c in sim._components]
    if want_comps != have_comps:
        raise SnapshotError(
            f"component skeleton mismatch: snapshot has {len(want_comps)} "
            f"components, design has {len(have_comps)} (or names differ) — "
            "rebuild with the identical config before restoring"
        )
    want_chans = [c["name"] for c in state["channels"]]
    have_chans = [c.name for c in sim._channels]
    if want_chans != have_chans:
        raise SnapshotError("channel skeleton mismatch between snapshot and rebuilt design")


def pair_sim_state(sim: Any, state: Dict[str, Any], th: Thawer) -> None:
    _check_skeleton(sim, state)
    for comp, st in zip(sim._components, state["components"]):
        th.pair_attrs(comp, st["state"])
    for ch, st in zip(sim._channels, state["channels"]):
        th.pair(st["items"], list(ch._items))
        th.pair(st["staged"], list(ch._staged))


def apply_sim_state(sim: Any, state: Dict[str, Any], th: Thawer) -> None:
    # Discard any compiled tick program *before* touching component state:
    # invalidate() flushes per-slot tick counts into the components, which
    # must not land on top of restored counters.  The next run() recompiles.
    if sim._program is not None:
        sim._program.invalidate()
        sim._program = None
    sim._subs_stale = True
    for comp, st in zip(sim._components, state["components"]):
        comp.restore_state(st["state"], th)
    for ch, st in zip(sim._channels, state["channels"]):
        items = th.thaw(st["items"])
        staged = th.thaw(st["staged"])
        ch._items[:] = items
        ch._staged[:] = staged
        ch._pop_count = st["pop_count"]
        ch.total_pushed = st["total_pushed"]
        ch.total_popped = st["total_popped"]
        ch.occupancy_accum = st["occupancy_accum"]
        ch.cycles_observed = st["cycles_observed"]
        ch._dirty = False
    sched = state["sched"]
    sim.cycle = state["cycle"]
    sim.cycles_skipped = sched["cycles_skipped"]
    sim.skip_events = sched["skip_events"]
    sim._quiescent = sched["quiescent"]
    sim._woken = set(sched["woken"])
    sim._wake_heap = [tuple(entry) for entry in sched["wake_heap"]]
    del sim._dirty_channels[:]
    for idx in sched["dirty"]:
        ch = sim._channels[idx]
        ch._dirty = True
        sim._dirty_channels.append(ch)
    if sim._selective:
        for ch in sim._channels:
            # Re-anchor lazy occupancy crediting at the restored cycle, the
            # same invariant register_channel() establishes.
            ch._anchor = sim.cycle - ch.cycles_observed


# ================================================================= registry
def capture_registry(registry: Any) -> Dict[str, Any]:
    """Raw values of every owned metric (bound views are recomputed live)."""
    out: Dict[str, Any] = {}
    for name, metric in registry._metrics.items():
        if isinstance(metric, Histogram):
            out[name] = ("h", (tuple(metric.buckets), list(metric.counts), metric.count, metric.total))
        elif isinstance(metric, (Counter, Gauge)):
            out[name] = (_metric_kind(metric), metric.value)
    return out


def apply_registry(registry: Any, data: Dict[str, Any]) -> int:
    """Restore raw metric values in place; returns the unmatched count."""
    missing = 0
    for name, (kind, raw) in data.items():
        metric = registry._metrics.get(name)
        if metric is None or _metric_kind(metric) != kind:
            missing += 1
        elif kind == "h":
            _apply_metric(metric, _Met("h", raw))
        else:
            metric.value = raw
    return missing


# ================================================================ snapshots
@dataclass
class Snapshot:
    """A captured run: version + cycle + frozen payload + skeleton metadata."""

    version: int
    cycle: int
    payload: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)


def _register_design_infra(design: Any, sim: Any, fr: Optional[Freezer], th: Optional[Thawer]) -> None:
    spans = getattr(design, "span_tracker", None)
    faults = getattr(design, "faults", None)
    if fr is not None:
        _register_sim_infra_fr(fr, sim)
        if spans is not None:
            fr.add_infra(spans, "spans")
        if faults is not None:
            fr.add_infra(faults, "faults")
            fr.add_infra(faults.plan, "plan")
    if th is not None:
        _register_sim_infra_th(th, sim)
        if spans is not None:
            th.add_infra("spans", None, spans)
        if faults is not None:
            th.add_infra("faults", None, faults)
            th.add_infra("plan", None, faults.plan)


def capture(handle: Any) -> Snapshot:
    """Snapshot a full single-process run (simulator + host interface).

    ``handle`` is the :class:`~repro.runtime.FpgaHandle` driving the design.
    Distributed designs checkpoint through ``DistConfig(
    checkpoint_every_slices=...)`` instead — their state spans worker
    processes and is collected at slice barriers by the engine itself.
    """
    design = handle.design
    sim = design.sim
    if hasattr(sim, "_children"):
        raise SnapshotError(
            "disk snapshots cover single-process simulators; distributed runs "
            "use DistConfig(checkpoint_every_slices=...) barrier checkpoints"
        )
    fr = Freezer()
    _register_design_infra(design, sim, fr, None)
    spans = getattr(design, "span_tracker", None)
    faults = getattr(design, "faults", None)
    payload = {
        "sim": capture_sim_state(sim, fr),
        "registry": capture_registry(sim.registry),
        "spans": fr.freeze_attrs(spans) if spans is not None else None,
        "faults": fr.freeze_attrs(faults, exclude=("plan",)) if faults is not None else None,
        "tracer": fr.freeze_attrs(sim.tracer) if sim.tracer is not None else None,
        "host": handle.snapshot_state(fr),
    }
    meta = {
        "scheduling": sim.scheduling,
        "components": [c.name for c in sim._components],
        "channels": [c.name for c in sim._channels],
        "skipped_attrs": fr.skipped,
    }
    return Snapshot(SNAPSHOT_VERSION, sim.cycle, payload, meta)


def restore(handle: Any, snap: Snapshot) -> None:
    """Restore a :func:`capture` snapshot into a freshly rebuilt + replayed run.

    The caller must have rebuilt the design with the identical config and
    replayed the host-side setup (allocations, writes, ``call()``
    submissions) so the command registry lines up; the snapshot then
    overwrites every mutable field, after which ``run(N)`` continues
    bit-identically to the uninterrupted execution.
    """
    if snap.version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot version {snap.version} != supported {SNAPSHOT_VERSION}"
        )
    design = handle.design
    sim = design.sim
    payload = snap.payload
    th = Thawer()
    _register_design_infra(design, sim, None, th)
    spans = getattr(design, "span_tracker", None)
    faults = getattr(design, "faults", None)
    # Pass 1: pair every frozen subtree with its live in-place target.
    pair_sim_state(sim, payload["sim"], th)
    if payload["faults"] is not None and faults is not None:
        th.pair_attrs(faults, payload["faults"])
    if payload["spans"] is not None and spans is not None:
        th.pair_attrs(spans, payload["spans"])
    if payload["tracer"] is not None and sim.tracer is not None:
        th.pair_attrs(sim.tracer, payload["tracer"])
    # Pass 2: thaw.
    apply_sim_state(sim, payload["sim"], th)
    apply_registry(sim.registry, payload["registry"])
    if payload["faults"] is not None and faults is not None:
        th.thaw_attrs(faults, payload["faults"])
    if payload["spans"] is not None and spans is not None:
        th.thaw_attrs(spans, payload["spans"])
    if payload["tracer"] is not None and sim.tracer is not None:
        th.thaw_attrs(sim.tracer, payload["tracer"])
    handle.restore_state(payload["host"], th)


# ============================================================== dist workers
def capture_partition_state(sim: Any, fault_state: Any = None) -> Dict[str, Any]:
    """Freeze one partition (worker or root) for a barrier checkpoint.

    The payload is fully decoupled from the live objects (markers only), so
    worker processes ship it over the barrier pipe and the supervisor can
    hold the root's payload without aliasing state that keeps advancing.
    """
    fr = Freezer()
    _register_sim_infra_fr(fr, sim)
    if fault_state is not None:
        fr.add_infra(fault_state, "faults")
        fr.add_infra(fault_state.plan, "plan")
    return {
        "sim": capture_sim_state(sim, fr),
        "registry": capture_registry(sim.registry) if sim.registry is not None else None,
        "faults": fr.freeze_attrs(fault_state, exclude=("plan",)) if fault_state is not None else None,
    }


def restore_partition_state(sim: Any, payload: Dict[str, Any], fault_state: Any = None) -> None:
    th = Thawer()
    _register_sim_infra_th(th, sim)
    if fault_state is not None:
        th.add_infra("faults", None, fault_state)
        th.add_infra("plan", None, fault_state.plan)
    pair_sim_state(sim, payload["sim"], th)
    if payload["faults"] is not None and fault_state is not None:
        th.pair_attrs(fault_state, payload["faults"])
    apply_sim_state(sim, payload["sim"], th)
    if payload["registry"] is not None and sim.registry is not None:
        apply_registry(sim.registry, payload["registry"])
    if payload["faults"] is not None and fault_state is not None:
        th.thaw_attrs(fault_state, payload["faults"])
