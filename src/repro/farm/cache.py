"""On-disk content-addressed result cache; entries are data, not code.

Entries are keyed by the job fingerprint (see
:mod:`repro.farm.fingerprint`): entry ``<fp>`` lives at
``<root>/<fp[:2]>/<fp[2:]>.json`` — the two-character fan-out keeps
directories small for large sweeps.  Each file is a JSON envelope
``{"fingerprint", "value", "meta"}`` written atomically (temp file +
``os.replace``), so concurrent farms sharing one cache directory never
observe torn entries.

Values are JSON with three tags, so what comes back ``==`` what went in:

* ``{"__tuple__": [...]}`` — a tuple (lists stay JSON arrays);
* ``{"__dataclass__": "module:qualname", "fields": {...}}`` — a dataclass
  defined inside ``repro``; decoding imports nothing outside ``repro`` and
  builds nothing that is not a ``repro`` dataclass;
* ``{"__dict__": {...}}`` — a str-keyed dict whose keys collide with a tag
  (any other str-keyed dict is a plain JSON object).

Floats round-trip exactly: JSON writes them with ``repr`` (``inf``, ``nan``
and ``-0.0`` included).  A value outside this vocabulary is refused by
:meth:`ResultCache.put` with :class:`TypeError`.  A file that does not
decode under these rules — truncated, foreign, a wrong fingerprint, a tag
naming anything but a ``repro`` dataclass — is a corrupt entry: the lookup
is a miss and the file is deleted.

The cache keeps session hit/miss counters that
:class:`repro.farm.engine.Farm` surfaces as ``farm/cache/*`` metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import tempfile
from functools import lru_cache
from typing import Any, Dict, Iterator, Optional, Tuple

_SUFFIX = ".json"
_TUPLE, _DATACLASS, _DICT = "__tuple__", "__dataclass__", "__dict__"
_TAGS = (_TUPLE, _DATACLASS, _DICT)


@lru_cache(maxsize=None)
def _dataclass_for(ref: str) -> type:
    """The ``repro`` dataclass named ``"module:qualname"``, or ValueError."""
    module, _, qualname = ref.partition(":")
    if not qualname or not (module == "repro" or module.startswith("repro.")):
        raise ValueError(f"{ref!r} does not name a repro dataclass")
    obj: Any = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
        raise ValueError(f"{ref!r} does not name a repro dataclass")
    return obj


def encode(value: Any) -> Any:
    """``value`` as tagged JSON data; TypeError if it has no encoding."""
    kind = type(value)
    if value is None or kind in (bool, int, float, str):
        return value
    if kind is list:
        return [encode(v) for v in value]
    if kind is tuple:
        return {_TUPLE: [encode(v) for v in value]}
    if kind is dict:
        if not all(type(k) is str for k in value):
            raise TypeError("the farm cache stores only dicts with str keys")
        body = {k: encode(v) for k, v in value.items()}
        return {_DICT: body} if any(k in _TAGS for k in body) else body
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        ref = f"{kind.__module__}:{kind.__qualname__}"
        try:
            resolved = _dataclass_for(ref)
        except (ValueError, ImportError, AttributeError):
            resolved = None
        fields = dataclasses.fields(value)
        if resolved is not kind or not all(f.init for f in fields):
            raise TypeError(f"the farm cache cannot store a {ref} (not a plain repro dataclass)")
        return {_DATACLASS: ref, "fields": {f.name: encode(getattr(value, f.name)) for f in fields}}
    raise TypeError(f"the farm cache cannot store a {kind.__module__}.{kind.__qualname__}")


def decode(data: Any) -> Any:
    """Inverse of :func:`encode`; ValueError on anything it did not write."""
    if type(data) is list:
        return [decode(v) for v in data]
    if type(data) is not dict:
        return data
    if not any(k in _TAGS for k in data):
        return {k: decode(v) for k, v in data.items()}
    if data.keys() == {_TUPLE} and type(data[_TUPLE]) is list:
        return tuple(decode(v) for v in data[_TUPLE])
    if data.keys() == {_DICT} and type(data[_DICT]) is dict:
        return {k: decode(v) for k, v in data[_DICT].items()}
    if data.keys() == {_DATACLASS, "fields"} and type(data["fields"]) is dict:
        cls = _dataclass_for(data[_DATACLASS])
        return cls(**{k: decode(v) for k, v in data["fields"].items()})
    raise ValueError(f"malformed tagged object with keys {sorted(data)}")


class ResultCache:
    """Content-addressed JSON store rooted at ``root``."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(os.fspath(root))
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # -------------------------------------------------------------- layout
    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint[:2], fingerprint[2:] + _SUFFIX)

    def entries(self) -> Iterator[str]:
        """Yield every stored fingerprint."""
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(_SUFFIX):
                    yield shard + name[: -len(_SUFFIX)]

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def __contains__(self, fingerprint: str) -> bool:
        return os.path.exists(self.path_for(fingerprint))

    # -------------------------------------------------------------- access
    def get(self, fingerprint: str) -> Tuple[bool, Any, Dict[str, Any]]:
        """Look up one entry: ``(hit, value, meta)``."""
        path = self.path_for(fingerprint)
        try:
            with open(path, "rb") as f:
                envelope = json.loads(f.read())
            if envelope.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch")
            value, meta = decode(envelope["value"]), decode(envelope["meta"])
            if type(meta.get("wall_seconds", 0.0)) not in (int, float):
                raise ValueError("malformed meta")
        except FileNotFoundError:
            self.misses += 1
            return False, None, {}
        except Exception:  # noqa: BLE001 — a corrupt entry can raise anything
            # Corrupt entry: drop it and recompute.
            self.invalidate(fingerprint)
            self.misses += 1
            return False, None, {}
        self.hits += 1
        return True, value, meta

    def put(self, fingerprint: str, value: Any, meta: Optional[Dict[str, Any]] = None) -> str:
        """Store ``value`` under ``fingerprint`` atomically; returns the path."""
        envelope = {
            "fingerprint": fingerprint,
            "value": encode(value),
            "meta": encode(dict(meta or {})),
        }
        path = self.path_for(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(envelope, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def invalidate(self, fingerprint: str) -> bool:
        """Remove one entry; True if it existed."""
        try:
            os.unlink(self.path_for(fingerprint))
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for fp in list(self.entries()):
            removed += self.invalidate(fp)
        return removed

    # --------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        entries = list(self.entries())
        total_bytes = 0
        for fp in entries:
            try:
                total_bytes += os.path.getsize(self.path_for(fp))
            except OSError:
                pass
        lookups = self.hits + self.misses
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
