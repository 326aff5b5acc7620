"""Exact freeze/thaw of live simulation state (the ``repro.snapshot`` core).

A snapshot is *state*, never *structure*: the design's object graph is
rebuilt by re-elaborating the same config, then the snapshot overwrites
every mutable field, so ``restore(snap); run(N)`` is bit-identical to the
uninterrupted run under both scheduling backends.

**State is declared.**  Every class a capture reaches names its state in
one ``_state`` tuple, unioned up the MRO (:func:`declared_state`; a
dataclass or named tuple that declares none uses its fields).  Capture and
restore touch declared names only: the rest is structure.  A value no rule
covers (a callable, a port, an undeclared class) raises
:class:`SnapshotError` naming owner, field and type: nothing is skipped.

The freezer emits **plain data**: primitives, tuples of primitives and
*markers*, lists ``[tag, ...]`` led by a reserved ``T_*`` string;
infrastructure becomes ``T_REF`` indexes into the rebuilt skeleton.

Restore takes two passes.  :meth:`Thawer.check` resolves every class and
checks every field name and marker shape; nothing is written before it
passes.  The thaw then walks in capture order and refills in place: a
marker whose live counterpart in the same field is of its kind is written
into it (tick closures and registry views close over model objects by
identity), and a marker met again resolves to its first visit's object.
"""

from __future__ import annotations

import random
import sys
import weakref
from collections import deque
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Bumped on any change to the capture format or the captured fields, so a
#: stale checkpoint file is refused instead of restored (DESIGN.md,
#: "Versioning"; 19: the runtime server no longer keeps per-client
#: lock-wait samples — a command's wait is its ``queue_wait`` span segment).
SNAPSHOT_VERSION = 20


class SnapshotError(RuntimeError):
    """Snapshot capture/restore failed (skeleton mismatch, bad payload...)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible ``SNAPSHOT_VERSION``."""


class OutcomeNotCaptured(SnapshotError):
    """Read from the future of a replayed call that a restore has no outcome
    for: the captured run had settled it and dropped its future, or had not
    issued it.  ``uid`` names the call."""

    def __init__(self, message: str, uid: int) -> None:
        super().__init__(message)
        self.uid = uid


_PRIMITIVES = (type(None), bool, int, float, complex, str, bytes)
_PRIM = frozenset(_PRIMITIVES)  # exact-type test: one hash lookup per value

# Marker layouts:
#   [T_REF, kind, key]                      infrastructure reference
#   [T_OBJ, module, qualname, {name: fz}]   declared object
#   [T_STATE, module, qualname, state]      check_state()/snapshot_state()/restore_state()
#   [T_NAMED, module, qualname, *items]     named tuple
#   [T_RNG, state]  [T_BYTES, bytes]
#   [T_ARRAY, dtype, shape, bytes]          numpy.ndarray
#   [T_LIST, *items]  [T_TUPLE, *items]  [T_DEQUE, maxlen, *items]
#   [T_SET, frozen, *items]  [T_DICT, {key: fz}]
T_REF, T_OBJ, T_STATE, T_NAMED = "~ref", "~obj", "~state", "~named"
T_RNG, T_BYTES, T_ARRAY = "~rng", "~bytes", "~array"
T_LIST, T_TUPLE, T_DEQUE, T_SET, T_DICT = "~list", "~tuple", "~deque", "~set", "~dict"
#: Each tag's marker length (negative: the least length of a variadic one).
_LENGTHS = {T_REF: 3, T_OBJ: 4, T_STATE: 4, T_NAMED: -3, T_RNG: 2, T_BYTES: 2, T_ARRAY: 4,
            T_LIST: -1, T_TUPLE: -1, T_DEQUE: -2, T_SET: -2, T_DICT: 2}


def _is_marker(fz: Any, tag: Optional[str] = None) -> bool:
    """Whether a value is a freezer marker (``Thawer._walk`` inlines it)."""
    if type(fz) is not list or not fz or type(fz[0]) is not str:
        return False
    return fz[0] == tag if tag is not None else fz[0] in _LENGTHS


def _is_plain(obj: Any) -> bool:
    """Deeply immutable values usable as frozen dict keys and set items."""
    return type(obj) in _PRIM or (type(obj) is tuple and all(map(_is_plain, obj)))


def _name(t: type) -> str:
    return f"{t.__module__}.{t.__qualname__}"


_DECLS: Dict[type, Tuple[str, ...]] = {}
_NAME_SETS: Dict[type, frozenset] = {}  # the same, as sets


def declared_state(cls: type) -> Tuple[str, ...]:
    """The attribute names ``cls`` declares as state: the ``_state`` tuples
    up its MRO, or, for a dataclass or named tuple that declares none, its
    fields.  A class declares its own tuple (``_state = ()`` when it adds
    no state); one that declares nothing is refused."""
    names = _DECLS.get(cls)
    if names is None:
        if "_state" in cls.__dict__:
            merged: Dict[str, None] = {}
            for base in reversed(cls.__mro__):
                merged.update(dict.fromkeys(base.__dict__.get("_state", ())))
            names = tuple(merged)
        elif is_dataclass(cls):
            names = tuple(f.name for f in fields(cls))
        elif issubclass(cls, tuple) and "_fields" in cls.__dict__:
            names = tuple(cls._fields)
        else:
            raise SnapshotError(
                f"{_name(cls)} declares no state: name the attributes a snapshot must "
                "capture in a `_state` tuple on the class (`_state = ()` if none)")
        _DECLS[cls], _NAME_SETS[cls] = names, frozenset(names)
    return names


class _Unfreezable(Exception):
    """A value no rule covers; the field walk above it names its owner."""


# ================================================================= freeze
class Freezer:
    """Converts a live object graph into a plain-data marker tree; ``refs``
    maps the id of each infrastructure object to its key (:func:`infra_ids`)."""

    def __init__(self, refs: Dict[int, Tuple[str, Any]]) -> None:
        self._refs = refs
        self._ref_markers: Dict[int, list] = {}
        self._memo: Dict[int, Any] = {}
        self._keep: List[Any] = []  # id()-stability for memo keys

    def freeze(self, obj: Any) -> Any:
        """Freeze one value, or raise :class:`SnapshotError` naming its type."""
        try:
            return self._freeze(obj)
        except _Unfreezable as exc:
            raise SnapshotError(f"cannot freeze {exc}") from None

    def freeze_attrs(self, obj: Any) -> Dict[str, Any]:
        """Freeze the declared fields of ``obj`` (name -> frozen value)."""
        t = type(obj)
        out = {}
        prim = _PRIM
        for name in _DECLS.get(t) or declared_state(t):
            try:
                val = getattr(obj, name)
                if type(val) not in prim:
                    val = self._freeze(val)
            except AttributeError:
                raise SnapshotError(f"{_name(t)} declares {name!r} in `_state`, "
                                    "but the instance has no such attribute") from None
            except _Unfreezable as exc:
                raise SnapshotError(f"{_name(t)}.{name} holds {exc}") from None
            out[name] = val
        return out

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
        if t is dict:
            return self._fz_dict(obj)
        if t is deque:
            return self._seq(obj, [T_DEQUE, obj.maxlen])
        return (_HANDLERS.get(t) or _classify(t))(self, obj)

    def _fz_unknown(self, obj: Any) -> Any:
        raise _Unfreezable(
            f"a {_name(type(obj))}, which no snapshot rule covers: declare `_state` on "
            "its class, or leave it out of the declared state (structure is rebuilt)")

    def _fz_tuple(self, obj: tuple) -> Any:
        t = type(obj)
        if t is not tuple and not hasattr(t, "_fields"):
            return self._fz_unknown(obj)
        try:
            items = [x if type(x) in _PRIM else self._freeze(x) for x in obj]
        except _Unfreezable as exc:
            if t is tuple:
                raise
            raise _Unfreezable(f"a {_name(t)} holding {exc}") from None
        if t is not tuple:  # a named tuple keeps its class, like any object
            return [T_NAMED, t.__module__, t.__qualname__, *items]
        return obj if _PRIM.issuperset(map(type, obj)) else [T_TUPLE, *items]

    def _fz_array(self, obj: Any) -> Any:
        if obj.dtype.hasobject:
            return self._fz_unknown(obj)
        return self._memoize(obj, [T_ARRAY, obj.dtype.str, obj.shape, obj.tobytes()])

    def _seq(self, obj: Any, marker: list) -> Any:
        self._memoize(obj, marker)
        prim = _PRIM
        if prim.issuperset(map(type, obj)):  # copied as it is
            marker += obj
            return marker
        for x in obj:
            marker.append(x if type(x) in prim else self._freeze(x))
        return marker

    def _fz_dict(self, obj: dict) -> Any:
        out: Dict[Any, Any] = {}
        marker = self._memoize(obj, [T_DICT, out])
        prim = _PRIM
        if prim.issuperset(map(type, obj.values())) and prim.issuperset(map(type, obj)):
            out.update(obj)
            return marker
        for k, v in obj.items():
            if type(k) not in prim and not _is_plain(k):
                raise _Unfreezable(f"a dict keyed by a {_name(type(k))}")
            out[k] = v if type(v) in prim else self._freeze(v)
        return marker

    def _fz_set(self, obj: Any) -> Any:
        if not all(map(_is_plain, obj)):
            raise _Unfreezable(f"a {type(obj).__name__} of items that are not plain values")
        try:
            items = sorted(obj)
        except TypeError:  # items of mixed types
            items = sorted(obj, key=repr)
        return self._memoize(obj, [T_SET, isinstance(obj, frozenset), *items])

    def _fz_object(self, obj: Any) -> Any:
        """A declared object; one with ``snapshot_state``/``restore_state``
        (and a ``check_state`` for pass 1) chooses its own compact state
        (``MemoryStore``: one byte image; ``Histogram``: its bins)."""
        t = type(obj)
        protocol = hasattr(t, "snapshot_state")
        if not (protocol or "_state" in t.__dict__ or is_dataclass(t)):
            return self._fz_unknown(obj)
        marker = self._memoize(obj, [T_STATE if protocol else T_OBJ, t.__module__, t.__qualname__, None])
        marker[3] = obj.snapshot_state(self) if protocol else self.freeze_attrs(obj)
        return marker

    def _memoize(self, obj: Any, marker: Any) -> Any:
        self._memo[id(obj)] = marker
        self._keep.append(obj)
        return marker


#: type -> freeze handler, filled by :func:`_classify` the first time a type
#: is met.  First match wins; an ndarray, a declared class and an object
#: with its own protocol come after these.
_HANDLERS: Dict[type, Any] = {}
_RULES = (
    (_PRIMITIVES, lambda fr, obj: obj),  # a subclass of a primitive
    (tuple, Freezer._fz_tuple),
    (random.Random, lambda fr, rng: fr._memoize(rng, [T_RNG, rng.getstate()])),
    (bytearray, lambda fr, b: fr._memoize(b, [T_BYTES, bytes(b)])),
    ((set, frozenset), Freezer._fz_set),
    (dict, Freezer._fz_dict),  # a defaultdict is refilled in place
    ((list, deque, type), Freezer._fz_unknown),  # their subclasses, and classes
)


def _classify(t: type) -> Any:
    for bases, handler in _RULES:
        if issubclass(t, bases):
            break
    else:
        # An ndarray can only be met once NumPy is loaded: never import it.
        np = sys.modules.get("numpy")
        ndarray = np is not None and issubclass(t, np.ndarray)
        handler = Freezer._fz_array if ndarray else Freezer._fz_object
    _HANDLERS[t] = handler
    return handler


# =================================================================== thaw
def _malformed(what: str) -> SnapshotError:
    return SnapshotError(f"malformed snapshot: {what}")


class Thawer:
    """Rebuilds live state from a marker tree, preserving object identity.
    Check every part of a payload first (:meth:`check_all`,
    :meth:`check_attrs`); the thaw then only writes.
    ``modules``: the modules besides ``repro``'s whose classes a marker may
    name (those of the rebuilt design's own components)."""

    def __init__(self, refs: Dict[Tuple[str, Any], Any], modules: frozenset = frozenset()) -> None:
        self._refs = refs  # (kind, key) -> live infrastructure (infra_objects)
        self._modules = modules
        self._resolved: Dict[Tuple[str, str, str], type] = {}  # (tag, module, qualname)
        self._checked: set = set()
        self._done: Dict[int, Any] = {}
        self._claimed: set = set()  # id(live) already owned by a marker

    # ------------------------------------------------------------ pass 1
    def check_all(self, items: Any) -> None:
        """Validate frozen values and all they hold, writing nothing."""
        if not _PRIM.issuperset(map(type, items)):
            self._walk([x for x in items if type(x) not in _PRIM])

    def check_attrs(self, cls: type, state: Any) -> None:
        """Validate ``state`` as the fields of a ``cls``: exactly the names
        the class declares."""
        self.check_all(self._fields_of(cls, state))

    def _fields_of(self, cls: type, state: Any) -> Any:
        declared_state(cls)
        if type(state) is not dict or state.keys() != _NAME_SETS[cls]:
            got = sorted(state) if type(state) is dict else state
            raise _malformed(f"{_name(cls)} declares the fields {declared_state(cls)}, "
                             f"the state holds {got!r}")
        return state.values()

    def _walk(self, stack: list) -> None:
        prim, checked, lengths, resolved = _PRIM, self._checked, _LENGTHS, self._resolved
        while stack:  # of values that are not primitives
            fz = stack.pop()
            try:
                want = lengths[fz[0]] if type(fz) is list else 0
            except (IndexError, KeyError, TypeError):
                want = 0
            if not want:
                if type(fz) is tuple and _is_plain(fz):
                    continue
                raise SnapshotError(f"not freezer output: a bare {type(fz).__name__} in the payload")
            key = id(fz)
            if key in checked:
                continue
            checked.add(key)
            tag, n = fz[0], len(fz)
            if n != want if want > 0 else n < -want:
                raise _malformed(f"a {tag} marker of length {n}")
            if tag == T_OBJ or tag == T_STATE or tag == T_NAMED:
                try:
                    cls = resolved[(tag, fz[1], fz[2])]
                except (KeyError, TypeError):
                    cls = self._resolve(fz)
                if tag == T_OBJ:
                    state = fz[3]
                    if type(state) is not dict or state.keys() != _NAME_SETS[cls]:
                        self._fields_of(cls, state)  # raises, naming the fields
                    items = state.values()
                elif tag != T_NAMED:
                    cls.check_state(fz[3])
                    continue
                else:
                    if len(getattr(cls, "_fields", ())) != n - 3 or not issubclass(cls, tuple):
                        raise _malformed(f"{_name(cls)} is not a named tuple of {n - 3} fields")
                    items = fz[3:]
            elif tag == T_LIST or tag == T_TUPLE:
                items = fz[1:]
            elif tag == T_DICT:
                if type(fz[1]) is not dict or not (
                        prim.issuperset(map(type, fz[1])) or all(map(_is_plain, fz[1]))):
                    raise _malformed("a dict marker holds one dict with plain keys")
                items = fz[1].values()
            elif tag == T_REF:
                if not _is_plain(fz[2]) or (fz[1], fz[2]) not in self._refs:
                    raise SnapshotError(f"unknown infrastructure {fz[1:]}: not the same design")
                continue
            elif tag == T_DEQUE:
                if fz[1] is not None and (type(fz[1]) is not int or fz[1] < 0):
                    raise _malformed("a deque's maxlen must be None or a natural number")
                items = fz[2:]
            else:  # a leaf (set, bytes, random state, array): built once, here
                try:
                    built = _fresh(fz, None)
                    if tag == T_BYTES:
                        built[:] = fz[1]
                except (TypeError, ValueError, KeyError, IndexError) as exc:
                    raise _malformed(f"a bad {tag}: {exc}") from None
                if tag == T_ARRAY:
                    self._done[key] = built
                continue
            if not prim.issuperset(map(type, items)):  # an all-primitive body is done
                stack += [x for x in items if type(x) not in prim]

    def _resolve(self, fz: list) -> type:
        """The class a marker names: declared (or, for ``T_STATE``, with its
        own protocol) and found in an *already imported* module of this
        design, so a payload never triggers an import."""
        module, qualname = fz[1], fz[2]
        if type(module) is not str or type(qualname) is not str:
            raise _malformed(f"a {fz[0]} marker names no class")
        if module.split(".")[0] != "repro" and module not in self._modules:
            raise SnapshotError(f"{module}:{qualname} is not a class of this design")
        try:
            cls = sys.modules[module]
            for part in qualname.split("."):
                cls = getattr(cls, part)
        except (KeyError, AttributeError) as exc:
            raise SnapshotError(f"cannot resolve class {module}:{qualname}: {exc!r}") from None
        if not isinstance(cls, type):
            raise SnapshotError(f"{module}:{qualname} is not a class")
        if fz[0] != T_STATE:
            declared_state(cls)
        elif not (hasattr(cls, "check_state") and hasattr(cls, "restore_state")):
            raise _malformed(f"{_name(cls)} has no check_state and restore_state")
        self._resolved[(fz[0], module, qualname)] = cls
        return cls

    # ------------------------------------------------------------ pass 2
    def thaw(self, fz: Any, live: Any = None) -> Any:
        """Thaw a checked value.  ``live`` is the object now in its place,
        refilled in place if it is of the marker's kind and still unclaimed."""
        if type(fz) is not list:
            return fz  # a primitive, or a primitive-only tuple
        tag = fz[0]
        if tag == T_REF:
            return self._refs[(fz[1], fz[2])]
        key = id(fz)
        target = self._done.get(key)
        if target is not None:
            return target
        cls = self._resolved[(tag, fz[1], fz[2])] if tag in (T_OBJ, T_STATE, T_NAMED) else None
        if tag == T_TUPLE or tag == T_NAMED:
            items = self.thaw_items(fz[1 if cls is None else 3:], live if isinstance(live, tuple) else ())
            return tuple(items) if cls is None else tuple.__new__(cls, items)
        if live is None or id(live) in self._claimed or (
                type(live) is not (cls or _KINDS.get(tag)) and not _fits(fz, live, cls)):
            live, target = (), _fresh(fz, cls)
        else:
            self._claimed.add(id(live))
            target = live
        self._done[key] = target  # before it is filled: cycles resolve to it
        if tag == T_OBJ:
            self.thaw_attrs(target, fz[3])
        elif tag == T_STATE:
            target.restore_state(fz[3], self)
        elif tag == T_LIST or tag == T_DEQUE:
            items = self.thaw_items(fz[1 if tag == T_LIST else 2:], live)
            target.clear()
            target.extend(items)
        elif tag == T_DICT:
            pairs = fz[1] if _PRIM.issuperset(map(type, fz[1].values())) else [
                (k, self.thaw(v, live.get(k) if live else None)) for k, v in fz[1].items()]
            target.clear()
            target.update(pairs)
        elif tag == T_SET:
            target.clear()
            target.update(fz[2:])
        elif tag == T_RNG:
            target.setstate(fz[1])
        elif tag == T_BYTES:
            target[:] = fz[1]
        return target

    def thaw_items(self, items: list, live: Any) -> list:
        """Thaw checked frozen ``items``, each with the live item at its place."""
        prim, thaw = _PRIM, self.thaw
        if prim.issuperset(map(type, items)):
            return list(items)
        if not live:
            return [x if type(x) in prim else thaw(x) for x in items]
        lives = [*live, *[None] * (len(items) - len(live))]
        return [x if type(x) in prim else thaw(x, lv) for x, lv in zip(items, lives)]

    def thaw_attrs(self, live: Any, state: Dict[str, Any]) -> None:
        """Write checked :meth:`Freezer.freeze_attrs` output onto ``live``."""
        prim = _PRIM
        for name, sub in state.items():
            if type(sub) not in prim:
                sub = self.thaw(sub, getattr(live, name, None))
            object.__setattr__(live, name, sub)


def _fits(fz: list, live: Any, cls: Optional[type]) -> bool:
    """Whether ``live`` can take marker ``fz``'s contents in place."""
    tag = fz[0]
    if tag == T_OBJ or tag == T_STATE:
        return type(live) is cls
    if tag == T_DEQUE:
        return isinstance(live, deque) and live.maxlen == fz[1]
    if tag == T_SET:
        return type(live) is set and not fz[1]
    return isinstance(live, _KINDS[tag])


_KINDS = {T_LIST: list, T_DICT: dict, T_BYTES: bytearray, T_RNG: random.Random}


def _fresh(fz: list, cls: Optional[type]) -> Any:
    """A new object of ``fz``'s kind, already filled if a set, RNG or array."""
    tag = fz[0]
    if tag == T_OBJ or tag == T_STATE:
        return cls.__new__(cls)
    if tag == T_DEQUE:
        return deque(maxlen=fz[1])
    if tag == T_SET:
        return (frozenset if fz[1] else set)(fz[2:])
    if tag == T_RNG:
        rng = random.Random()
        rng.setstate(fz[1])
        return rng
    if tag == T_ARRAY:
        import numpy as np  # lazy: only designs that hold arrays pay

        return np.frombuffer(fz[3], dtype=np.dtype(fz[1])).reshape(fz[2]).copy()
    return {T_LIST: list, T_DICT: dict, T_BYTES: bytearray}[tag]()


# ====================================================================== sim
def infra_objects(sim: Any, fault_state: Any, spans: Any,
                  calls: Dict[int, Any]) -> Dict[Tuple[str, Any], Any]:
    """``(kind, key) -> object`` of all that a marker of ``sim`` may name;
    ``calls`` maps a uid to a call of the driving handle (its live table, or
    for a restore every call whose context the snapshot may name), whose
    command contexts the runtime server queues."""
    named = {"sim": sim, "registry": sim.registry, "tracer": sim.tracer, "spans": spans,
             "faults": fault_state, "plan": getattr(fault_state, "plan", None)}
    by_key = {(kind, None): obj for kind, obj in named.items() if obj is not None}
    by_key.update((("comp", i), comp) for i, comp in enumerate(sim._components))
    by_key.update((("chan", i), chan) for i, chan in enumerate(sim._channels))
    by_key.update((("call", uid), call.ctx) for uid, call in calls.items())
    return by_key


#: sim -> (shape, id -> (kind, key)); ids only, so an entry never keeps its
#: simulator alive.
_INFRA_IDS: "weakref.WeakKeyDictionary[Any, tuple]" = weakref.WeakKeyDictionary()
#: The call table of a simulator no handle drives: one object, so the
#: cached id table of a bare simulator keeps its shape.
_NO_CALLS: Dict[int, Any] = {}


def infra_ids(sim: Any, fault_state: Any, spans: Any,
              calls: Dict[int, Any]) -> Dict[int, Tuple[str, Any]]:
    """``id -> (kind, key)``, the inverse of :func:`infra_objects`, kept per
    simulator while its structure holds (0.25 ms of a 7.6 ms capture).  A
    call table gains a call at issue and loses it at settlement, and a uid
    names one context for the handle's life, so its uids tell whether it
    changed."""
    shape = (len(sim._components), len(sim._channels), id(sim.registry), id(sim.tracer),
             id(spans), id(fault_state), id(calls), tuple(calls))
    cached = _INFRA_IDS.get(sim)
    if cached is None or cached[0] != shape:
        by_id = {id(obj): ref for ref, obj in infra_objects(sim, fault_state, spans, calls).items()}
        cached = _INFRA_IDS[sim] = (shape, by_id)
    return cached[1]


# ================================================================ snapshots
@dataclass
class Snapshot:
    """A captured run: version + cycle + frozen payload + skeleton metadata."""

    version: int
    cycle: int
    payload: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)


def _capture_state(sim: Any, parts: Dict[str, Any], host: Any = None) -> Tuple[Freezer, Dict[str, Any]]:
    """Freeze ``host``, a simulator, and ``parts`` (payload key -> the fault
    state, span tracker or tracer, or ``None``) by their declared fields.
    The host goes first: its refusals name what the replay or the serving
    layer got wrong, before the simulator meets a context it cannot name."""
    calls = host._calls if host is not None else _NO_CALLS
    fr = Freezer(infra_ids(sim, parts["faults"], parts.get("spans"), calls))
    payload = {} if host is None else {"host": host.snapshot_state(fr)}
    payload["sim"] = sim.snapshot_state(fr)
    payload.update((k, None if p is None else fr.freeze_attrs(p)) for k, p in parts.items())
    return fr, payload


def _restore_state(sim: Any, payload: Any, parts: Dict[str, Any], host: Any = None) -> None:
    """Check all of ``payload``, then thaw it, in capture order."""
    keys = (*("host",) * (host is not None), "sim", *parts)
    if not isinstance(payload, dict) or any(k not in payload for k in keys):
        raise _malformed(f"the payload must be a dict with keys {keys}")
    calls = host._held_calls() if host is not None else _NO_CALLS
    th = Thawer(infra_objects(sim, parts["faults"], parts.get("spans"), calls),
                frozenset(type(comp).__module__ for comp in sim._components))
    steps = [(host, payload["host"], True)] if host is not None else []
    steps += [(sim, payload["sim"], True)]  # (owner, state, writes it by hand)
    steps += [(part, payload[key], False) for key, part in parts.items()
              if part is not None and payload[key] is not None]
    for owner, state, by_hand in steps:
        owner.check_state(state, th) if by_hand else th.check_attrs(type(owner), state)
    for owner, state, by_hand in steps:
        owner.restore_state(state, th) if by_hand else th.thaw_attrs(owner, state)


def _design_parts(design: Any) -> Dict[str, Any]:
    return {"faults": getattr(design, "faults", None),
            "spans": getattr(design, "span_tracker", None), "tracer": design.sim.tracer}


def capture(handle: Any) -> Snapshot:
    """Snapshot a full run: the simulator and ``handle``, the
    :class:`~repro.runtime.FpgaHandle` driving it."""
    sim = handle.design.sim
    fr, payload = _capture_state(sim, _design_parts(handle.design), handle)
    # ``objects``: how many objects the capture froze, which is what it costs.
    meta = {"scheduling": sim.scheduling, "objects": len(fr._memo)}
    return Snapshot(SNAPSHOT_VERSION, sim.cycle, payload, meta)


def restore(handle: Any, snap: Snapshot) -> None:
    """Restore a :func:`capture` snapshot into a run rebuilt from the
    identical config with its host-side setup (allocations, writes, every
    ``call()``) replayed; ``run(N)`` then continues bit-identically.  A
    replayed call the snapshot holds no outcome for leaves the live table,
    and its future raises :class:`OutcomeNotCaptured`."""
    if snap.version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"snapshot version {snap.version} != supported {SNAPSHOT_VERSION}"
        )
    _restore_state(handle.design.sim, snap.payload, _design_parts(handle.design), handle)


# ======================================================== bare simulators
def capture_sim_state(sim: Any) -> Dict[str, Any]:
    """Freeze a bare simulator to plain data, which the caller can hold
    while the simulator runs on."""
    return _capture_state(sim, {"faults": None})[1]


def restore_sim_state(sim: Any, payload: Dict[str, Any]) -> None:
    _restore_state(sim, payload, {"faults": None})
