"""Snapshot files under attack: only typed errors, never a modified restore.

A snapshot file is ``magic · version · payload length · sha256(payload)``
followed by a pickle of builtins.  ``load`` checks the header against the
bytes before it decodes anything and decodes with an unpickler that refuses
every global; ``restore`` validates the envelope before it touches the
design.  From one real mid-flight checkpoint this file generates seeded
truncations, bit flips and type-confused payloads and requires each to end
in ``SnapshotError`` — no other exception, no restore of altered bytes, and
no global named by a file ever imported or called.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import sys

import pytest

from repro.snapshot import SNAPSHOT_VERSION, SnapshotError, capture, restore
from repro.snapshot.scenario import CHUNK, _build_memcpy
from repro.snapshot.store import _HEADER, _MAGIC, load, save

SEED = 3  # a chaos plan that injects faults: RNG positions are in the file
N_TRUNCATIONS = 120
N_FLIPS = 200


def _design():
    build, handle, futs, _dsts, _pattern = _build_memcpy(SEED, "compiled")
    return build, handle, futs


def _finish(build, handle, futs):
    sim = build.design.sim
    for _ in range(60):
        if all(f.done for f in futs):
            break
        sim.run(CHUNK)
    return sim.cycle, build.design.metrics(stable_only=True)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """(path, bytes, reference outcome) of one mid-flight checkpoint."""
    path = str(tmp_path_factory.mktemp("fuzz") / "real.ckpt")
    build, handle, futs = _design()
    build.design.sim.run(2 * CHUNK)
    assert not all(f.done for f in futs)
    save(capture(handle), path)
    with open(path, "rb") as fh:
        data = fh.read()
    return path, data, _finish(build, handle, futs)


def _wrap(body: bytes, version: int = SNAPSHOT_VERSION) -> bytes:
    """A well-formed file around ``body``: the header an attacker (or a test)
    can always recompute — the digest is integrity, not authenticity."""
    return _HEADER.pack(_MAGIC, version, len(body), hashlib.sha256(body).digest()) + body


def _write(tmp_path, data: bytes) -> str:
    path = str(tmp_path / "case.ckpt")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def test_the_pristine_file_restores_and_continues(checkpoint):
    path, _data, reference = checkpoint
    build, handle, futs = _design()
    restore(handle, load(path))
    assert _finish(build, handle, futs) == reference


def test_truncations_and_bit_flips_are_typed_errors(checkpoint, tmp_path):
    _path, data, _reference = checkpoint
    rng = random.Random(0xF022)
    cuts = {0, 1, len(_MAGIC), _HEADER.size - 1, _HEADER.size, _HEADER.size + 1, len(data) - 1}
    while len(cuts) < N_TRUNCATIONS:
        cuts.add(rng.randrange(len(data)))
    cases = [data[:cut] for cut in sorted(cuts)]
    for i in range(N_FLIPS):
        mutated = bytearray(data)
        # Every fourth case aims at the header; distinct bits, so the result
        # always differs from the original.
        span = _HEADER.size if i % 4 == 0 else len(data)
        for bit in rng.sample(range(span * 8), rng.randint(1, 4)):
            mutated[bit // 8] ^= 1 << (bit % 8)
        cases.append(bytes(mutated))
    cases.append(data + b"\x00")  # trailing bytes are not ignored
    assert len(cases) >= 300 and all(case != data for case in cases)
    for case in cases:
        with pytest.raises(SnapshotError):
            load(_write(tmp_path, case))


def test_a_file_cannot_name_a_global(checkpoint, tmp_path, monkeypatch):
    """GLOBAL / STACK_GLOBAL / REDUCE / INST: nothing is imported or called."""
    canary = tmp_path / "snapshot_fuzz_canary.py"
    canary.write_text("raise SystemExit('a snapshot file imported a module')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    touched = tmp_path / "touched"
    cmd = f"touch {touched}".encode()
    bodies = [
        # protocol 0: os.system(cmd) via GLOBAL + REDUCE
        b"cos\nsystem\n(S'" + cmd + b"'\ntR.",
        # protocol 4: STACK_GLOBAL + REDUCE
        b"\x80\x04\x8c\x02os\x8c\x06system\x93\x8c" + bytes([len(cmd)]) + cmd + b"\x85R.",
        # INST builds an instance of a named class
        b"(S'" + cmd + b"'\nios\nsystem\n.",
        # a module that exists only on this test's path
        b"csnapshot_fuzz_canary\nboom\n.",
        b"\x80\x04\x8c\x14snapshot_fuzz_canary\x8c\x04boom\x93.",
        # what a format-2 envelope did: pickle the Snapshot dataclass itself
        pickle.dumps({"version": SNAPSHOT_VERSION, "snapshot": SnapshotError("x")}),
    ]
    for body in bodies:
        with pytest.raises(SnapshotError, match="names the global"):
            load(_write(tmp_path, _wrap(body)))
    assert not touched.exists()
    assert "snapshot_fuzz_canary" not in sys.modules


def test_format_2_files_are_refused(tmp_path):
    with pytest.raises(SnapshotError):
        load(_write(tmp_path, pickle.dumps(
            {"format": "repro-snapshot", "version": 2, "snapshot": None}, protocol=5)))
    with pytest.raises(SnapshotError):  # a right header on an old version
        load(_write(tmp_path, _wrap(pickle.dumps({}), version=2)))


def _fields(data: bytes) -> dict:
    return pickle.loads(data[_HEADER.size:])  # this test wrote these bytes


def test_wrong_shapes_never_reach_the_design(checkpoint, tmp_path):
    """Well-formed pickles of the wrong shape: refused by ``load`` when the
    envelope is wrong, by ``restore`` — before it changes anything — when a
    part of the payload is."""
    path, data, reference = checkpoint

    def confused(mutate):
        fields = _fields(data)
        mutate(fields)
        return _write(tmp_path, _wrap(pickle.dumps(fields, protocol=5)))

    for body in (pickle.dumps([1, 2, 3]), pickle.dumps(None), pickle.dumps({"version": 3})):
        with pytest.raises(SnapshotError):
            load(_write(tmp_path, _wrap(body)))
    for mutate in (
        lambda f: f.update(cycle="soon"),
        lambda f: f.update(payload=[f["payload"]]),
        lambda f: f.pop("meta"),
        lambda f: f.update(version=SNAPSHOT_VERSION + 1),  # header says otherwise
    ):
        with pytest.raises(SnapshotError):
            load(confused(mutate))

    def swap_row(fields):
        fields["payload"]["sim"]["channels"][5] = 7

    def short_row(fields):
        rows = fields["payload"]["sim"]["channels"]
        rows[5] = rows[5][:-1]

    build, handle, futs = _design()
    for mutate in (
        lambda f: f["payload"].pop("sim"),
        lambda f: f["payload"].pop("host"),
        lambda f: f["payload"]["sim"].pop("wake_heap"),
        lambda f: f["payload"]["sim"].update(components=3),
        swap_row,
        short_row,
        lambda f: f["payload"].update(tracer={"events": []}),  # not freezer output
    ):
        snap = load(confused(mutate))
        with pytest.raises(SnapshotError):
            restore(handle, snap)
    # Every refusal came before the first write to the design: it still
    # takes the pristine snapshot and finishes like the uninterrupted run.
    restore(handle, load(path))
    assert _finish(build, handle, futs) == reference


def test_save_is_atomic_and_leaves_no_temp_files(checkpoint, tmp_path):
    path, _data, _reference = checkpoint
    snap = load(path)
    target = str(tmp_path / "out" / "again.ckpt")
    save(snap, target)
    save(snap, target)
    assert os.listdir(os.path.dirname(target)) == ["again.ckpt"]
    assert load(target).cycle == snap.cycle
