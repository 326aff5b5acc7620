"""Exact freeze/thaw of live simulation state (the ``repro.snapshot`` core).

A snapshot is *state*, never *structure*: the object graph of a design
(components, channels, registry bindings, compiled tick programs, fault
hooks) is rebuilt deterministically by re-elaborating the same config, and
the snapshot then overwrites every mutable field so that ``restore(snap);
run(N)`` is bit-identical — cycles, stable metric dumps, fault fingerprints
— to the uninterrupted run under both scheduling backends.

Why not pickle the :class:`~repro.sim.Simulator` wholesale?  The live graph
is full of unpicklables that are *structural*: registry ``BoundMetric``
lambdas closing over model containers, compiled-backend closures, fault
hooks patched over instance ``tick`` methods, host response callbacks.  The
freezer therefore walks the graph and emits **plain data**: primitives,
tuples of primitives, and *markers* — lists ``[tag, ...]`` that start with
one of the reserved ``T_*`` strings.  It replaces

* infrastructure objects (components, channels, the simulator, registry,
  tracer, span tracker, fault state/plan) with index-based ``T_REF``
  markers resolved against the rebuilt skeleton (the reference table is
  built once per simulator structure, see :func:`infra_ids`);
* transient model objects (DRAM column requests, pending commands) with
  ``T_OBJ`` markers rebuilt via ``cls.__new__`` + ``object.__setattr__``;
* named tuples (in-flight AXI payloads) with ``T_NAMED`` markers rebuilt
  with their class, so a restored beat still has ``.data``;
* objects that implement ``snapshot_state``/``restore_state`` themselves
  (``MemoryStore``) with a ``T_STATE`` marker around what they returned;
* callables with a skip sentinel — they are structure, recreated by the
  rebuild (a container holding a callable is skipped whole, leaving the
  live one untouched); the sentinel never reaches a payload.

Attributes a class lists in ``_snapshot_exclude`` are wiring made at
construction and are not walked at all.

Metrics travel with their owners: a counter, gauge or histogram is frozen
where a component, the fault state, the span tracker or the runtime server
holds it, and restored there in place; the metric registry itself is never
read, so neither call adopts its deferred registrations.

Thawing is **two-pass**.  Registry bindings capture model containers by
identity (``lambda q=q: len(q)``), so restore must mutate the *live*
objects in place rather than swap in fresh ones.  A pairing pass first
walks the frozen and live trees together and pre-seeds the memo with
``id(marker) -> live object`` wherever a type-matching in-place target
exists; the thaw pass then resolves aliased references (a DRAM bank reached
both through ``controller.banks[i]`` and a scheduler entry) to the same
identity-preserved live object regardless of traversal order.  Pickle keeps
list identity, so aliasing survives a file or a pipe.

Pairing and thawing apply **only to freezer output**: a state dict written
by hand (``RuntimeServer``, ``FpgaHandle``) may hold any lists it likes, the
engine never interprets them, and its author thaws the leaves it froze.
"""

from __future__ import annotations

import functools
import random
import sys
import types
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.registry import BoundMetric, Counter, Gauge, Histogram

#: Bumped on any change to the capture format or captured field set.  A
#: snapshot's version participates in farm checkpoint fingerprints, so a
#: version bump silently invalidates stale checkpoint files instead of
#: restoring garbage into a newer model.  (3: plain-data marker trees;
#: 4: the DRAM controller keeps accepted W data as ``wdata``/``wstrb``;
#: 5: it also keeps its live-bank and active-ID indexes; 6: the sim state
#: drops the wake heap, woken set and quiescent flag of the deleted
#: schedules; 7: AXI payloads are named tuples that keep their class, and
#: R/B channel items are ``(axi_id, payload)`` pairs; 8: no registry part,
#: the runtime server carries its own metrics.)
SNAPSHOT_VERSION = 8


class SnapshotError(RuntimeError):
    """Snapshot capture/restore failed (skeleton mismatch, bad payload...)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible ``SNAPSHOT_VERSION``."""


_PRIMITIVES = (type(None), bool, int, float, complex, str, bytes)
_PRIM = frozenset(_PRIMITIVES)  # exact-type test: one hash lookup per value

#: Types that are always structure, never state.
_STRUCTURE_TYPES = (
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    types.BuiltinMethodType,
    functools.partial,
    type,
    types.ModuleType,
    weakref.ReferenceType,
    memoryview,
)

# Marker tags.  A marker is a list whose first element is one of these
# reserved strings; the layouts are
#   [T_REF, kind, key]                      infrastructure reference
#   [T_OBJ, module, qualname, {name: fz}]   transient object
#   [T_STATE, module, qualname, state]      object with its own protocol
#   [T_ATTRS, {name: fz}]                   freeze_attrs(): fields, no class
#   [T_EXC, module, qualname, args, {..}]   exception instance
#   [T_RNG, state]  [T_MET, kind, data]  [T_BYTES, bytes]
#   [T_ARRAY, dtype, shape, bytes]          numpy.ndarray
#   [T_LIST, *items]  [T_TUPLE, *items]  [T_DEQUE, maxlen, *items]
#   [T_NAMED, module, qualname, *items]     tuple subclass (named tuple)
#   [T_SET, frozen, *items]  [T_DICT, {key: fz}]
T_REF, T_OBJ, T_STATE, T_ATTRS, T_EXC = "~ref", "~obj", "~state", "~attrs", "~exc"
T_RNG, T_MET, T_BYTES, T_ARRAY = "~rng", "~metric", "~bytes", "~array"
T_LIST, T_TUPLE, T_DEQUE, T_SET, T_DICT = "~list", "~tuple", "~deque", "~set", "~dict"
T_NAMED = "~named"
_TAGS = frozenset(
    (T_REF, T_OBJ, T_STATE, T_ATTRS, T_EXC, T_RNG, T_MET, T_BYTES, T_ARRAY,
     T_LIST, T_TUPLE, T_NAMED, T_DEQUE, T_SET, T_DICT)
)

#: Internal "this value is structure" signal.  Containers drop or propagate
#: it; :meth:`Freezer.freeze` raises on it, so it never reaches a payload.
_SKIP = object()


def _is_marker(fz: Any, tag: Optional[str] = None) -> bool:
    """The one place that decides whether a value is a freezer marker."""
    if type(fz) is not list or not fz or type(fz[0]) is not str:
        return False
    return fz[0] == tag if tag is not None else fz[0] in _TAGS


def _is_plain(obj: Any) -> bool:
    """Deeply immutable values usable as frozen dict keys."""
    if isinstance(obj, _PRIMITIVES):
        return True
    if isinstance(obj, (tuple, frozenset)):
        return all(_is_plain(x) for x in obj)
    return False


#: type -> freeze handler, filled by :func:`_classify` the first time a type
#: is met; (type, exclude) -> (slot names, skipped field names).
_HANDLERS: Dict[type, Callable[["Freezer", Any], Any]] = {}
_PLANS: Dict[Tuple[type, Tuple[str, ...]], Tuple[Tuple[str, ...], frozenset]] = {}


def _plan(t: type, exclude: Tuple[str, ...]) -> Tuple[Tuple[str, ...], frozenset]:
    """Slot names up the MRO and the union of every ``_snapshot_exclude``."""
    slots: List[str] = []
    skip = set(exclude)
    for cls in t.__mro__:
        names = cls.__dict__.get("__slots__", ())
        slots.extend((names,) if isinstance(names, str) else names)
        skip.update(cls.__dict__.get("_snapshot_exclude", ()))
    plan = _PLANS[(t, exclude)] = (
        tuple(n for n in slots if n not in ("__dict__", "__weakref__")),
        frozenset(skip),
    )
    return plan


class Freezer:
    """Converts a live object graph into a plain-data marker tree.

    ``refs`` maps ``id(obj)`` to ``(kind, key)`` for every infrastructure
    object a field may reference (:func:`infra_ids`); the ``[T_REF, kind,
    key]`` marker is made the first time a field actually holds one.
    """

    def __init__(self, refs: Dict[int, Tuple[str, Any]]) -> None:
        self._refs = refs
        self._ref_markers: Dict[int, list] = {}
        self._memo: Dict[int, Any] = {}
        self._keep: List[Any] = []  # id()-stability for memo keys
        self.skipped = 0

    # ------------------------------------------------------------- freeze
    def freeze(self, obj: Any) -> Any:
        """Freeze one value; raises if it is structure (a callable, or a
        tuple/list/dict holding one) instead of leaking the skip sentinel."""
        fz = self._freeze(obj)
        if fz is _SKIP:
            raise SnapshotError(
                f"cannot freeze a {type(obj).__qualname__}: it is or holds a "
                "callable, which is structure, not state"
            )
        return fz

    def freeze_attrs(self, obj: Any, exclude: Tuple[str, ...] = ()) -> list:
        """Freeze ``obj``'s fields (no class identity) minus ``exclude`` and
        every ``_snapshot_exclude`` up its MRO."""
        return [T_ATTRS, self._fields(obj, exclude)]

    def _freeze(self, obj: Any) -> Any:
        t = type(obj)
        if t in _PRIM:
            return obj
        key = id(obj)
        fz = self._memo.get(key)
        if fz is not None:
            return fz
        ref = self._refs.get(key)
        if ref is not None:
            fz = self._ref_markers.get(key)
            if fz is None:
                fz = self._ref_markers[key] = [T_REF, *ref]
            return fz
        # The containers a model's state is made of dispatch here; the rest
        # go through the handler their type was classified to.
        if t is list:
            return self._seq(obj, [T_LIST])
        if t is deque:
            return self._seq(obj, [T_DEQUE, obj.maxlen])
        if t is dict:
            return self._fz_dict(obj)
        return (_HANDLERS.get(t) or _classify(t))(self, obj)

    def _fields(self, obj: Any, exclude: Tuple[str, ...] = ()) -> Dict[str, Any]:
        """Frozen ``__dict__`` + ``__slots__`` state; a skipped attribute is
        dropped (the live one is left alone on restore)."""
        t = type(obj)
        slots, skip = _PLANS.get((t, exclude)) or _plan(t, exclude)
        d = getattr(obj, "__dict__", None) or {}
        pairs: Any = d.items()
        if slots:
            pairs = list(pairs) + [
                (n, v) for n in slots if n not in d and (v := getattr(obj, n, _SKIP)) is not _SKIP
            ]
        out = {}
        prim = _PRIM
        for name, val in pairs:
            if name in skip:
                continue
            if type(val) not in prim:
                val = self._freeze(val)
                if val is _SKIP:
                    self.skipped += 1
                    continue
            out[name] = val
        return out

    # ----------------------------------------------------------- handlers
    def _fz_raw(self, obj: Any) -> Any:
        return obj  # subclass of a primitive

    def _fz_skip(self, obj: Any) -> Any:
        self.skipped += 1
        return _SKIP

    def _fz_tuple(self, obj: tuple) -> Any:
        marker, raw = [T_TUPLE], True
        for x in obj:
            if type(x) not in _PRIM:
                raw = False
                x = self._freeze(x)
                if x is _SKIP:
                    self.skipped += 1
                    return _SKIP
            marker.append(x)
        t = type(obj)
        if t is not tuple:  # a named tuple keeps its class, like any object
            marker[0:1] = [T_NAMED, t.__module__, t.__qualname__]
            return marker
        return obj if raw else marker  # primitive-only tuples stay tuples

    def _fz_metric(self, obj: Any) -> list:
        return self._memoize(obj, [T_MET, *_metric_state(obj)])

    def _fz_rng(self, obj: random.Random) -> list:
        return self._memoize(obj, [T_RNG, obj.getstate()])

    def _fz_bytes(self, obj: bytearray) -> list:
        return self._memoize(obj, [T_BYTES, bytes(obj)])

    def _fz_array(self, obj: Any) -> Any:
        if obj.dtype.hasobject:
            return self._fz_skip(obj)
        return self._memoize(obj, [T_ARRAY, obj.dtype.str, obj.shape, obj.tobytes()])

    def _fz_list(self, obj: list) -> Any:
        return self._seq(obj, [T_LIST])

    def _fz_deque(self, obj: deque) -> Any:
        return self._seq(obj, [T_DEQUE, obj.maxlen])

    def _seq(self, obj: Any, marker: list) -> Any:
        self._memoize(obj, marker)
        if not obj:
            return marker
        prim = _PRIM
        for x in obj:
            if type(x) not in prim:
                break
        else:  # all primitive: copied as it is
            marker.extend(obj)
            return marker
        for x in obj:
            if type(x) not in prim:
                x = self._freeze(x)
                if x is _SKIP:
                    return self._contaminate(obj)
            marker.append(x)
        return marker

    def _fz_dict(self, obj: dict) -> Any:
        out: Dict[Any, Any] = {}
        marker = self._memoize(obj, [T_DICT, out])
        if not obj:
            return marker
        prim = _PRIM
        for k, v in obj.items():
            if type(k) not in prim or type(v) not in prim:
                break
        else:  # all primitive: copied as it is
            out.update(obj)
            return marker
        for k, v in obj.items():
            if type(k) not in prim and not _is_plain(k):
                return self._contaminate(obj)
            if type(v) not in prim:
                v = self._freeze(v)
                if v is _SKIP:
                    return self._contaminate(obj)
            out[k] = v
        return marker

    def _fz_set(self, obj: Any) -> Any:
        if not all(_is_plain(x) for x in obj):
            return self._fz_skip(obj)
        try:
            items = sorted(obj)
        except TypeError:
            items = list(obj)
        return self._memoize(obj, [T_SET, isinstance(obj, frozenset), *items])

    def _fz_exc(self, obj: BaseException) -> list:
        t = type(obj)
        marker = self._memoize(obj, [T_EXC, t.__module__, t.__qualname__, (), None])
        args = self._freeze(tuple(obj.args))
        if args is not _SKIP:
            marker[3] = args
        marker[4] = self._fields(obj)
        return marker

    def _fz_protocol(self, obj: Any) -> list:
        """Any object with ``snapshot_state``/``restore_state`` chooses its
        own compact state (``MemoryStore``: one joined byte image)."""
        t = type(obj)
        marker = self._memoize(obj, [T_STATE, t.__module__, t.__qualname__, None])
        marker[3] = obj.snapshot_state(self)
        return marker

    def _fz_object(self, obj: Any) -> list:
        # Generic transient object: class identity + frozen fields.  The
        # object itself always freezes.
        t = type(obj)
        marker = self._memoize(obj, [T_OBJ, t.__module__, t.__qualname__, None])
        marker[3] = self._fields(obj)
        return marker

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


#: Today's precedence, tested once per *type*: first match wins.
_RULES: Tuple[Tuple[Any, Callable[[Freezer, Any], Any]], ...] = (
    (_PRIMITIVES, Freezer._fz_raw),
    (_STRUCTURE_TYPES, Freezer._fz_skip),
    (tuple, Freezer._fz_tuple),
    ((Counter, Gauge, Histogram), Freezer._fz_metric),
    (BoundMetric, Freezer._fz_skip),
    (random.Random, Freezer._fz_rng),
    (bytearray, Freezer._fz_bytes),
    (list, Freezer._fz_list),
    (deque, Freezer._fz_deque),
    (dict, Freezer._fz_dict),
    ((set, frozenset), Freezer._fz_set),
    (BaseException, Freezer._fz_exc),
)


def _classify(t: type) -> Callable[[Freezer, Any], Any]:
    for bases, handler in _RULES:
        if issubclass(t, bases):
            break
    else:
        # An ndarray can only be met once NumPy is loaded: never import it.
        np = sys.modules.get("numpy")
        if np is not None and issubclass(t, np.ndarray):
            handler = Freezer._fz_array
        elif hasattr(t, "snapshot_state") and hasattr(t, "restore_state"):
            handler = Freezer._fz_protocol
        else:
            handler = Freezer._fz_object
    _HANDLERS[t] = handler
    return handler


def _resolve_class(module: str, qualname: str) -> type:
    """Look a class up in an *already imported* module: the rebuilt design
    has loaded every model class, and a payload must not trigger imports."""
    try:
        target: Any = sys.modules[module]
        for part in qualname.split("."):
            target = getattr(target, part)
    except (KeyError, AttributeError, TypeError) as exc:
        raise SnapshotError(f"cannot resolve class {module}:{qualname}: {exc!r}") from exc
    if not isinstance(target, type):
        raise SnapshotError(f"{module}:{qualname} is not a class")
    return target


class Thawer:
    """Rebuilds live state from a marker tree, preserving object identity.

    Call :meth:`pair`/:meth:`pair_attrs` over every (frozen, live) pair of
    the payload *first*, then thaw — the pairing memo is global, so aliases
    that cross component boundaries resolve correctly only if all pairing
    precedes all thawing.  Both accept freezer output only.
    """

    def __init__(self, refs: Dict[Tuple[str, Any], Any]) -> None:
        # (kind, key) -> live infrastructure object (:func:`infra_objects`).
        self._refs = refs
        self._done: Dict[int, Any] = {}
        self._paired: Dict[int, Any] = {}
        self._claimed: set = set()  # id(live) already owned by a marker
        self._visited: set = set()

    # ------------------------------------------------------------ pairing
    def pair(self, fz: Any, live: Any) -> None:
        if live is None or not _is_marker(fz):
            return
        key = id(fz)
        if key in self._visited:
            return
        self._visited.add(key)
        tag = fz[0]
        if tag == T_ATTRS:
            self._pair_fields(live, _attr_fields(fz))
        elif tag == T_OBJ or tag == T_STATE:
            t = type(live)
            if t.__qualname__ != fz[2] or t.__module__ != fz[1]:
                return
            if self._claim(key, live):
                # A protocol object's state pairs if it is a field walk
                # (``Component``'s default); anything hand-written is not
                # a marker and is left to the object's ``restore_state``.
                if tag == T_OBJ:
                    self._pair_fields(live, fz[3])
                else:
                    self.pair(fz[3], live)
        elif tag == T_LIST and isinstance(live, list):
            if self._claim(key, live):
                for sub, lv in zip(fz[1:], live):
                    self.pair(sub, lv)
        elif tag == T_DEQUE and isinstance(live, deque):
            if live.maxlen == fz[1] and self._claim(key, live):
                for sub, lv in zip(fz[2:], live):
                    self.pair(sub, lv)
        elif tag == T_DICT and isinstance(live, dict):
            if self._claim(key, live):
                for k, sub in fz[1].items():
                    if k in live:
                        self.pair(sub, live[k])
        elif tag == T_TUPLE and isinstance(live, tuple):
            for sub, lv in zip(fz[1:], live):
                self.pair(sub, lv)
        elif tag == T_NAMED and isinstance(live, tuple):
            for sub, lv in zip(fz[3:], live):
                self.pair(sub, lv)
        elif tag == T_SET and isinstance(live, set) and not fz[1]:
            self._claim(key, live)
        elif tag == T_MET and isinstance(live, (Counter, Gauge, Histogram)):
            if _metric_state(live)[0] == fz[1]:
                self._claim(key, live)
        elif tag == T_RNG and isinstance(live, random.Random):
            self._claim(key, live)
        elif tag == T_BYTES and isinstance(live, bytearray):
            self._claim(key, live)

    def pair_attrs(self, live: Any, state: Any) -> None:
        """Pair the output of :meth:`Freezer.freeze_attrs` with ``live``."""
        self._pair_fields(live, _attr_fields(state))

    def _pair_fields(self, live: Any, fields: Dict[str, Any]) -> None:
        for name, sub in fields.items():
            self.pair(sub, getattr(live, name, None))

    def _claim(self, key: int, live: Any) -> bool:
        if key in self._paired:
            return True
        if id(live) in self._claimed:
            # A different marker already owns this live object; creating a
            # fresh instance for this one preserves checkpoint distinctness.
            return False
        self._paired[key] = live  # also keeps id(live) stable
        self._claimed.add(id(live))
        return True

    # -------------------------------------------------------------- thaw
    def thaw(self, fz: Any) -> Any:
        t = type(fz)
        if t in _PRIM or t is tuple:
            return fz  # primitive-only tuples pass through freeze unchanged
        if not _is_marker(fz):
            if isinstance(fz, _PRIMITIVES):
                return fz
            raise SnapshotError(f"not freezer output: a bare {t.__name__} in the payload")
        tag = fz[0]
        if tag == T_REF:
            try:
                return self._refs[(fz[1], fz[2])]
            except KeyError:
                raise SnapshotError(
                    f"snapshot references unknown infrastructure {fz[1]}:{fz[2]} "
                    "(skeleton mismatch — was the design rebuilt with the same config?)"
                ) from None
        key = id(fz)
        if key in self._done:
            return self._done[key]
        if tag == T_TUPLE:
            return tuple(self.thaw(x) for x in fz[1:])
        if tag == T_NAMED:
            cls = _resolve_class(fz[1], fz[2])
            if not issubclass(cls, tuple):
                raise SnapshotError(f"{fz[1]}:{fz[2]} is not a tuple class")
            return tuple.__new__(cls, [self.thaw(x) for x in fz[3:]])
        # The in-place target the pairing pass found, else a fresh object;
        # registered before it is filled so cycles resolve to it.
        target = self._paired.get(key)
        if target is None:
            target = self._fresh(fz)
        self._done[key] = target
        if tag == T_OBJ:
            self._thaw_fields(target, fz[3])
        elif tag == T_STATE:
            target.restore_state(fz[3], self)
        elif tag == T_EXC:
            BaseException.__init__(target, *self.thaw(fz[3]))
            self._thaw_fields(target, fz[4])
        elif tag == T_LIST:
            target[:] = [self.thaw(x) for x in fz[1:]]
        elif tag == T_DEQUE:
            items = [self.thaw(x) for x in fz[2:]]
            target.clear()
            target.extend(items)
        elif tag == T_DICT:
            pairs = [(k, self.thaw(v)) for k, v in fz[1].items()]
            target.clear()
            target.update(pairs)
        elif tag == T_SET and not fz[1]:
            target.clear()
            target.update(fz[2:])
        elif tag == T_MET:
            _apply_metric(target, fz[1], fz[2])
        elif tag == T_RNG:
            target.setstate(fz[1])
        elif tag == T_BYTES:
            target[:] = fz[1]
        return target

    def _fresh(self, fz: list) -> Any:
        """A new, still empty object of the kind ``fz`` describes (complete
        already for the immutable kinds: frozenset, array)."""
        tag = fz[0]
        if tag in (T_OBJ, T_STATE, T_EXC):
            cls = _resolve_class(fz[1], fz[2])
            return cls.__new__(cls)
        if tag == T_DEQUE:
            return deque(maxlen=fz[1])
        if tag == T_SET:
            return frozenset(fz[2:]) if fz[1] else set()
        if tag == T_MET:
            if fz[1] == "h":
                return Histogram(buckets=fz[2][0])
            return Gauge() if fz[1] == "g" else Counter()
        if tag == T_ARRAY:
            import numpy as np  # lazy: only designs that hold arrays pay

            return np.frombuffer(fz[3], dtype=np.dtype(fz[1])).reshape(fz[2]).copy()
        try:
            return {T_LIST: list, T_DICT: dict, T_RNG: random.Random, T_BYTES: bytearray}[tag]()
        except KeyError:  # T_ATTRS has no identity of its own: use thaw_attrs
            raise SnapshotError(f"cannot thaw a {tag} marker as a value") from None

    def thaw_attrs(self, live: Any, state: Any) -> None:
        """Apply the output of :meth:`Freezer.freeze_attrs` onto ``live``."""
        self._thaw_fields(live, _attr_fields(state))

    def _thaw_fields(self, live: Any, fields: Dict[str, Any]) -> None:
        for name, sub in fields.items():
            object.__setattr__(live, name, self.thaw(sub))

    def thaw_metrics(self, owner: Any, names: Tuple[str, ...], state: Any, what: str) -> None:
        """Restore the metric attributes ``names`` of ``owner`` in place
        from ``state`` (name -> frozen metric): the registry holds the live
        objects, so they are written, never replaced."""
        if not isinstance(state, dict) or set(state) != set(names):
            raise SnapshotError(f"malformed snapshot: {what} metrics must be {names}")
        for name in names:
            live, fz = getattr(owner, name), state[name]
            self.pair(fz, live)
            if self.thaw(fz) is not live:
                raise SnapshotError(f"{what} metric {name!r} does not match the snapshot")


def _attr_fields(state: Any) -> Dict[str, Any]:
    if not _is_marker(state, T_ATTRS) or len(state) != 2 or type(state[1]) is not dict:
        raise SnapshotError("expected the output of Freezer.freeze_attrs()")
    return state[1]


def _metric_state(metric: Any) -> Tuple[str, Any]:
    """(kind, raw value) of an owned registry metric."""
    if isinstance(metric, Histogram):
        return "h", (tuple(metric.buckets), list(metric.counts), metric.count, metric.total)
    return ("g" if isinstance(metric, Gauge) else "c"), metric.value


def _apply_metric(target: Any, kind: str, data: Any) -> None:
    if kind in ("c", "g"):
        target.value = data
    else:
        buckets, counts, count, total = data
        if tuple(target.buckets) != tuple(buckets):
            raise SnapshotError("histogram bucket layout changed between capture and restore")
        target.counts[:] = list(counts)
        target.count = count
        target.total = total


# ====================================================================== sim
def infra_objects(sim: Any, fault_state: Any, spans: Any) -> Dict[Tuple[str, Any], Any]:
    """``(kind, key) -> object`` of everything a marker of one simulator may
    reference."""
    by_key: Dict[Tuple[str, Any], Any] = {("sim", None): sim}
    for kind, obj in _named_infra(sim, fault_state, spans):
        if obj is not None:
            by_key[(kind, None)] = obj
    for i, comp in enumerate(sim._components):
        by_key[("comp", i)] = comp
    for i, chan in enumerate(sim._channels):
        by_key[("chan", i)] = chan
    return by_key


def _named_infra(sim: Any, fault_state: Any, spans: Any):
    return (("registry", sim.registry), ("tracer", sim.tracer), ("spans", spans),
            ("faults", fault_state), ("plan", getattr(fault_state, "plan", None)))


#: sim -> (shape, ids of the named objects, id -> (kind, key)); ids only,
#: so an entry never keeps its simulator alive.
_INFRA_IDS: "weakref.WeakKeyDictionary[Any, tuple]" = weakref.WeakKeyDictionary()


def infra_ids(sim: Any, fault_state: Any, spans: Any) -> Dict[int, Tuple[str, Any]]:
    """``id -> (kind, key)``, the inverse of :func:`infra_objects`, built
    once per simulator structure.  A simulator only appends components and
    channels, so the table stands while their counts and the named objects
    are the same (rebuilding it per capture cost 0.25 ms of a 7.6 ms
    capture of the 32-core memcpy)."""
    shape = (len(sim._components), len(sim._channels))
    named = [id(obj) for _, obj in _named_infra(sim, fault_state, spans)]
    cached = _INFRA_IDS.get(sim)
    if cached is not None and cached[0] == shape and cached[1] == named:
        return cached[2]
    by_id = {id(obj): ref for ref, obj in infra_objects(sim, fault_state, spans).items()}
    _INFRA_IDS[sim] = (shape, named, by_id)
    return by_id


#: Channel row: name, items, staged (``None`` when empty, else a list of
#: frozen items), then the five counters.  Component row: name, state.
_CHAN_ROW, _COMP_ROW = 8, 2
_SIM_KEYS = ("cycle", "channels", "components", "dirty", "cycles_skipped", "skip_events")


def freeze_sim_state(sim: Any, fr: Freezer) -> Dict[str, Any]:
    """Freeze one :class:`~repro.sim.Simulator`'s complete mutable state."""
    if sim.mid_cycle:
        raise SnapshotError("cannot snapshot mid-cycle; capture between run()/step() calls")
    if sim._program is not None:
        sim._program.flush_ticks()  # per-slot tick counts into the components
    channels = []
    freeze = fr.freeze
    for ch in sim._channels:
        try:
            items = [freeze(x) for x in ch._items] if ch._items else None
            staged = [freeze(x) for x in ch._staged] if ch._staged else None
        except SnapshotError as exc:
            raise SnapshotError(f"channel {ch.name!r} holds an unfreezable item: {exc}") from None
        # The raw counters with the lag still owed to them credited: exactly
        # what the ``cycles_observed``/``occupancy_accum`` properties read.
        obs = ch._obs
        seen = ch._sim.cycle - ch._anchor if ch._sim is not None else 0
        if seen < obs:
            seen = obs
        occ = ch._occ + len(ch._items) * (seen - obs)
        channels.append((ch.name, items, staged, ch._pop_count, ch.total_pushed,
                         ch.total_popped, occ, seen))
    chan_refs = fr._refs
    return {
        "cycle": sim.cycle,
        "scheduling": sim.scheduling,
        "channels": channels,
        "components": [(comp.name, comp.snapshot_state(fr)) for comp in sim._components],
        "dirty": [chan_refs[id(ch)][1] for ch in sim._dirty_channels],
        "cycles_skipped": sim.cycles_skipped,
        "skip_events": sim.skip_events,
    }


def _expect_keys(obj: Any, keys: Tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise SnapshotError(f"malformed snapshot: {what} must be a dict with keys {keys}")


def _row_names(rows: Any, arity: int, what: str) -> List[Any]:
    if not isinstance(rows, list) or not all(
        isinstance(row, tuple) and len(row) == arity for row in rows
    ):
        raise SnapshotError(f"malformed snapshot: {what} rows must be {arity}-tuples")
    return [row[0] for row in rows]


def _check_skeleton(sim: Any, state: Dict[str, Any]) -> None:
    _expect_keys(state, _SIM_KEYS, "sim state")
    want_comps = _row_names(state["components"], _COMP_ROW, "component")
    have_comps = [c.name for c in sim._components]
    if want_comps != have_comps:
        raise SnapshotError(
            f"component skeleton mismatch: snapshot has {len(want_comps)} "
            f"components, design has {len(have_comps)} (or names differ) — "
            "rebuild with the identical config before restoring"
        )
    if _row_names(state["channels"], _CHAN_ROW, "channel") != [c.name for c in sim._channels]:
        raise SnapshotError("channel skeleton mismatch between snapshot and rebuilt design")


def pair_sim_state(sim: Any, state: Dict[str, Any], th: Thawer) -> None:
    _check_skeleton(sim, state)
    for comp, (_name, st) in zip(sim._components, state["components"]):
        # Only the freezer's own field walk is a marker and pairs; a component
        # that wrote its state by hand (the runtime server) thaws it itself.
        th.pair(st, comp)
    for ch, row in zip(sim._channels, state["channels"]):
        for frozen, live in ((row[1], ch._items), (row[2], ch._staged)):
            for sub, lv in zip(frozen or (), live):
                th.pair(sub, lv)


def apply_sim_state(sim: Any, state: Dict[str, Any], th: Thawer) -> None:
    # Discard any compiled tick program *before* touching component state:
    # its unfolded per-slot tick counts must not land on top of restored
    # counters.  The next run() recompiles, and its first entry wakes all.
    # Each cached tick closure goes too: it binds state objects the restore
    # may replace, and the next tick rebuilds it from the restored ones.
    sim._program = None
    sim._subs_stale = True
    for comp, (_name, st) in zip(sim._components, state["components"]):
        vars(comp).pop("_tick_body", None)
        comp.restore_state(st, th)
    for ch, row in zip(sim._channels, state["channels"]):
        ch._items[:] = [th.thaw(x) for x in row[1] or ()]
        ch._staged[:] = [th.thaw(x) for x in row[2] or ()]
        ch._pop_count, ch.total_pushed, ch.total_popped, ch._occ, ch._obs = row[3:]
        ch._dirty = False
    sim.cycle = state["cycle"]
    sim.cycles_skipped = state["cycles_skipped"]
    sim.skip_events = state["skip_events"]
    del sim._dirty_channels[:]
    for idx in state["dirty"]:
        ch = sim._channels[idx]
        ch._dirty = True
        sim._dirty_channels.append(ch)
    if sim._compiled:
        for ch in sim._channels:
            # Re-anchor lazy occupancy crediting at the restored cycle, the
            # same invariant register_channel() establishes.
            ch._anchor = sim.cycle - ch._obs


# ================================================================ snapshots
@dataclass
class Snapshot:
    """A captured run: version + cycle + frozen payload + skeleton metadata."""

    version: int
    cycle: int
    payload: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)


def _capture_state(sim: Any, fault_state: Any, extras: Dict[str, Any]) -> Tuple[Freezer, Dict[str, Any]]:
    """Freeze a simulator, its fault state and ``extras`` (payload key ->
    live object or ``None``, captured field by field)."""
    fr = Freezer(infra_ids(sim, fault_state, extras.get("spans")))
    payload = {
        "sim": freeze_sim_state(sim, fr),
        "faults": fr.freeze_attrs(fault_state, exclude=("plan",)) if fault_state is not None else None,
    }
    for key, part in extras.items():
        payload[key] = fr.freeze_attrs(part) if part is not None else None
    return fr, payload


def _restore_state(
    sim: Any, payload: Dict[str, Any], fault_state: Any, extras: Dict[str, Any]
) -> Thawer:
    _expect_keys(payload, ("sim", "faults", *extras), "payload")
    th = Thawer(infra_objects(sim, fault_state, extras.get("spans")))
    parts = [
        (part, payload[key])
        for key, part in (("faults", fault_state), *extras.items())
        if part is not None and payload[key] is not None
    ]
    # Pass 1: pair every frozen subtree with its live in-place target.
    pair_sim_state(sim, payload["sim"], th)
    for part, state in parts:
        th.pair_attrs(part, state)
    # Pass 2: thaw.
    apply_sim_state(sim, payload["sim"], th)
    for part, state in parts:
        th.thaw_attrs(part, state)
    return th


def _design_extras(design: Any, sim: Any) -> Dict[str, Any]:
    return {"spans": getattr(design, "span_tracker", None), "tracer": sim.tracer}


def capture(handle: Any) -> Snapshot:
    """Snapshot a full run (simulator + host interface).

    ``handle`` is the :class:`~repro.runtime.FpgaHandle` driving the design.
    """
    _refuse_serving(handle)
    design = handle.design
    sim = design.sim
    fr, payload = _capture_state(sim, getattr(design, "faults", None), _design_extras(design, sim))
    payload["host"] = handle.snapshot_state(fr)
    # ``objects``: how many objects the capture froze, which is what it costs.
    meta = {"scheduling": sim.scheduling, "skipped_attrs": fr.skipped, "objects": len(fr._memo)}
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
    _expect_keys(snap.payload, ("host",), "payload")
    _check_replay(handle, snap.payload["host"])
    th = _restore_state(
        sim, snap.payload, getattr(design, "faults", None), _design_extras(design, sim)
    )
    handle.restore_state(snap.payload["host"], th)


def _check_replay(handle: Any, host: Any) -> None:
    """Refuse, before anything is written, a replay that issued fewer
    ``call``s or made a different number of clients than the captured run:
    their futures, waiters or counters would be dropped."""
    _refuse_serving(handle)
    _expect_keys(host, ("calls", "clients"), "host state")
    if not isinstance(host["calls"], dict) or not isinstance(host["clients"], list):
        raise SnapshotError("malformed snapshot: host calls must be a dict, clients a list")
    missing = [uid for uid in host["calls"] if uid not in handle._calls]
    if missing:
        raise SnapshotError(
            f"the replay issued no call with uid {missing}: replay every call() "
            "the captured run made, in the same order, before restoring"
        )
    if len(host["clients"]) != len(handle._clients):
        raise SnapshotError(
            f"the captured run made {len(host['clients'])} clients, the replay "
            f"{len(handle._clients)}: replay every new_client() before restoring"
        )


def _refuse_serving(handle: Any) -> None:
    """A snapshot holds no serving-layer state (tenant queues, token
    buckets, scheduler deficits, their metrics); refuse a handle that an
    :class:`~repro.serve.AcceleratorService` drives."""
    tenants = [client.tenant for client in handle._clients if client.tenant]
    if tenants:
        raise SnapshotError(
            f"clients front serving-layer tenants {tenants}: an AcceleratorService's "
            "queues, quotas and metrics are not part of a snapshot"
        )


# ======================================================== bare simulators
def capture_sim_state(sim: Any, fault_state: Any = None) -> Dict[str, Any]:
    """Freeze a bare simulator (and optionally its fault state).

    The payload is fully decoupled from the live objects (plain data only),
    so the caller can hold it while the simulator keeps advancing.
    """
    return _capture_state(sim, fault_state, {})[1]


def restore_sim_state(sim: Any, payload: Dict[str, Any], fault_state: Any = None) -> None:
    _restore_state(sim, payload, fault_state, {})
