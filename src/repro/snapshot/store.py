"""Checkpoint persistence: atomic snapshot files and stage logs.

A snapshot file is a fixed header — magic, ``SNAPSHOT_VERSION``, payload
length, SHA-256 of the payload — then the payload: a pickle of one dict of
*builtins only* (the engine freezes to plain data).  :func:`load` checks the
header against the bytes before decoding anything and decodes with an
unpickler that refuses every global, so a truncated, bit-flipped or foreign
file is a typed :class:`SnapshotError` and no file can make the loader
import or call anything.  The digest gives integrity (torn, rotted files),
not authenticity: whoever can write the file can recompute it.

Files are written atomically (temp file + ``os.replace``) so a SIGKILL
mid-write leaves the previous checkpoint intact — the resume path never
sees a torn file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import tempfile
from typing import Any, Dict

from repro.snapshot.engine import (
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    SnapshotVersionError,
)

_MAGIC = b"RPROSNAP"
#: magic, version, payload length, sha256(payload) — big-endian, 52 bytes.
_HEADER = struct.Struct(">8sIQ32s")
_FIELDS = (("version", int), ("cycle", int), ("payload", dict), ("meta", dict))


# ------------------------------------------------------------------- files
def save(snap: Snapshot, path: str) -> None:
    """Atomically write ``snap`` to ``path``."""
    body = pickle.dumps(
        {name: getattr(snap, name) for name, _type in _FIELDS},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    header = _HEADER.pack(_MAGIC, snap.version, len(body), hashlib.sha256(body).digest())
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _NoGlobals(pickle.Unpickler):
    """Decodes builtins only: every opcode that would resolve a class or a
    callable goes through here, before anything is imported."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(f"the payload names the global {module}.{name}")


def load(path: str) -> Snapshot:
    """Read a snapshot file; every way it can be bad is a typed error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"unreadable snapshot file {path}: {exc}") from exc
    if len(data) < _HEADER.size or not data.startswith(_MAGIC):
        raise SnapshotError(
            f"{path} is not a repro snapshot file (or predates format 3, "
            "whose files are no longer read)"
        )
    _magic, version, length, digest = _HEADER.unpack_from(data)
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{path} holds snapshot version {version}, this build supports {SNAPSHOT_VERSION}"
        )
    body = memoryview(data)[_HEADER.size :]
    if len(body) != length or hashlib.sha256(body).digest() != digest:
        raise SnapshotError(f"{path} is truncated or corrupt (length/digest mismatch)")
    try:
        fields = _NoGlobals(io.BytesIO(body)).load()
    except Exception as exc:  # noqa: BLE001 — a hostile pickle can raise anything
        raise SnapshotError(f"{path} holds an undecodable payload: {exc}") from exc
    if not isinstance(fields, dict) or any(
        type(fields.get(name)) is not kind for name, kind in _FIELDS
    ):
        raise SnapshotError(f"{path} holds no snapshot (wrong payload shape)")
    if fields["version"] != version:
        raise SnapshotError(f"{path}: header and payload disagree on the version")
    return Snapshot(**{name: fields[name] for name, _type in _FIELDS})


# --------------------------------------------------------------- stage log
class StageLog:
    """Completed-stage journal for resumable multi-stage tool runs.

    ``tools/serve.py --resume`` and friends record each finished stage with
    a config fingerprint; a rerun with ``--resume`` skips stages whose
    fingerprint still matches (changing any argument invalidates the log
    entry, so a resume can never mix results from different configs).
    """

    def __init__(self, path: str, config: Dict[str, Any]) -> None:
        self.path = path
        self.config_fp = hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]
        # A journal that does not read back as a JSON object — missing,
        # truncated, binary, nested too deep to parse — is an empty log; an
        # entry whose value is not a string marks no stage done.
        self._done: Dict[str, str] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError):
            return
        if isinstance(data, dict):
            self._done = {k: v for k, v in data.items() if isinstance(v, str)}

    def is_done(self, stage: str) -> bool:
        return self._done.get(stage) == self.config_fp

    def mark_done(self, stage: str) -> None:
        self._done[stage] = self.config_fp
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".stages-", dir=directory)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(self._done, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.path)
