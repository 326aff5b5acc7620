"""Deterministic job fingerprints — the farm's cache keys.

A job is a pure function of its payload: the callable, its arguments, and
the version of the code that will run it.  The fingerprint is a SHA-256
over a *canonical* serialisation of all three, so two jobs collide exactly
when they would compute the same result:

* dataclasses (configs, platforms, tunings) serialise field-by-field under
  their qualified type name — field order and dict ordering never leak in;
* callables serialise as ``module.qualname`` plus a hash of their compiled
  code and constants, so a lambda's fingerprint changes when its body does
  (two sweeps differing only in an inline factory don't share entries);
* every fingerprint is salted with a digest of the ``repro`` source tree
  (or the ``REPRO_FARM_SALT`` environment override), so editing the models
  invalidates the whole cache instead of serving stale results.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import types
from functools import lru_cache
from typing import Any, Dict, Optional, Set

_SALT_ENV = "REPRO_FARM_SALT"


def _qualified_name(obj: Any) -> str:
    module = getattr(obj, "__module__", "") or ""
    qual = getattr(obj, "__qualname__", None) or getattr(obj, "__name__", repr(obj))
    return f"{module}.{qual}"


def _code_digest(fn: Any, path: Set[int]) -> Optional[str]:
    """Digest of a function's compiled body, if it has one."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    h = hashlib.sha256()
    h.update(code.co_code)
    h.update(repr(code.co_consts).encode())
    h.update(repr(code.co_names).encode())
    # Default arguments are part of behaviour too.
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        h.update(repr([_canonical(d, path) for d in defaults]).encode())
    return h.hexdigest()


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-able structure.

    The output is deterministic across processes and runs: dict keys are
    sorted, sets are ordered, dataclasses and enums carry their qualified
    type names, modules reduce to their name, and callables reduce to name +
    code digest.  An object that contains itself has no finite form: it is
    a ``TypeError`` naming its type.
    """
    return _canonical(obj, set())


def _canonical(obj: Any, path: Set[int]) -> Any:
    """:func:`canonical`, with ``path`` the ids of the objects being reduced
    around this one: only a cycle recurs on it, a shared reference does not."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() round-trips floats exactly and avoids JSON formatting drift.
        return {"__float__": repr(obj)}
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if isinstance(obj, types.ModuleType):
        # A builtin's ``__self__`` is its module, whose namespace reaches itself.
        return {"__module__": obj.__name__}
    key = id(obj)
    if key in path:
        raise TypeError(
            f"cannot fingerprint a {_qualified_name(type(obj))} that refers to itself; "
            "name the job's callable as a 'module:attr' string and pass plain data")
    path.add(key)
    try:
        return _reduce(obj, path)
    finally:
        path.discard(key)


def _reduce(obj: Any, path: Set[int]) -> Any:
    if isinstance(obj, enum.Enum):
        return {"__enum__": _qualified_name(type(obj)), "value": _canonical(obj.value, path)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name), path)
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": _qualified_name(type(obj)), "fields": fields}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x, path) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(repr(_canonical(x, path)) for x in obj)}
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                (repr(_canonical(k, path)), _canonical(v, path)) for k, v in obj.items()
            )
        }
    # functools.partial: canonicalise the pieces, not the object identity.
    func = getattr(obj, "func", None)
    if func is not None and hasattr(obj, "args") and hasattr(obj, "keywords"):
        return {
            "__partial__": _canonical(func, path),
            "args": _canonical(tuple(obj.args), path),
            "kwargs": _canonical(dict(obj.keywords or {}), path),
        }
    if callable(obj):
        entry: Dict[str, Any] = {"__callable__": _qualified_name(obj)}
        digest = _code_digest(obj, path)
        if digest is not None:
            entry["code"] = digest
        self_obj = getattr(obj, "__self__", None)
        if self_obj is not None:
            entry["self"] = _canonical(self_obj, path)
        return entry
    # numpy scalars and other number-likes that expose .item()
    item = getattr(obj, "item", None)
    if callable(item):
        try:
            return _canonical(item(), path)
        except Exception:
            pass
    state = getattr(obj, "__dict__", None)
    if isinstance(state, dict):
        return {"__object__": _qualified_name(type(obj)), "state": _canonical(state, path)}
    return {"__repr__": f"{_qualified_name(type(obj))}:{obj!r}"}


def _canonical_bytes(obj: Any) -> bytes:
    import json

    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":")).encode()


@lru_cache(maxsize=1)
def _source_tree_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def code_salt() -> str:
    """The code-version component of every fingerprint.

    ``REPRO_FARM_SALT`` overrides the source-tree digest — useful in tests
    (forcing invalidation without editing files) and in deployments that
    already know their release id.
    """
    return os.environ.get(_SALT_ENV) or _source_tree_digest()


def job_fingerprint(
    fn: Any,
    args: tuple,
    kwargs: dict,
    salt: Optional[str] = None,
) -> str:
    """Content fingerprint of one job: callable + payload + code version."""
    h = hashlib.sha256()
    h.update((salt if salt is not None else code_salt()).encode())
    h.update(b"\x00")
    h.update(_canonical_bytes(fn))
    h.update(b"\x00")
    h.update(_canonical_bytes(tuple(args)))
    h.update(b"\x00")
    h.update(_canonical_bytes(dict(kwargs)))
    return h.hexdigest()
