"""Deterministic checkpoint/restore: the ``repro.snapshot`` contract.

The core promise: ``restore(snapshot); run(N)`` is bit-identical — final
cycle, stable metrics, fault fingerprint, output data — to the
uninterrupted run, under every scheduling backend, with active fault
plans, across a save/load disk cycle.  On top of that contract ride the
integration layers this file also covers: the refusal to capture a sharded
build, farm job resume after a host crash, and the chaos ``checkpoint``
scenario.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import struct
from typing import Callable, NamedTuple

import pytest

from repro.faults.chaos import GOOD_OUTCOMES, MODES, SCENARIOS, run_chaos
from repro.sim import DEFAULT_SCHEDULING
from repro.snapshot import SNAPSHOT_VERSION, SnapshotError, SnapshotVersionError
from repro.snapshot.scenario import (
    _build_memcpy,
    kill_and_resume_differential,
    run_checkpointed_memcpy,
)
from repro.snapshot.store import load, save

#: A seed whose chaos plan is known to inject faults (the differential under
#: it exercises fault-RNG positions and poison bookkeeping, not just queues).
FAULTY_SEED = 3

_COMPARE_KEYS = ("outcome", "cycles", "chunks", "n_faults", "fingerprint", "stable_metrics")


# ------------------------------------------------------- kill-and-resume
@pytest.mark.parametrize("mode", MODES)
def test_kill_and_resume_bit_identical(mode, tmp_path):
    """SIGKILL the process right after a checkpoint write; the resumed run
    must be bit-identical to an uninterrupted reference — per backend."""
    r = kill_and_resume_differential(FAULTY_SEED, mode, str(tmp_path))
    assert r["killed"], "the victim process was never actually SIGKILLed"
    assert r["resumed"], "the second run never restored from the checkpoint"
    assert r["n_faults"] > 0, "seed must inject faults for this to prove anything"
    assert r["match"], r["error"]


def test_resume_from_disk_under_active_fault_plan(tmp_path):
    """In-process variant (no fork): abandon after two checkpoints, resume
    from the file, compare against the uninterrupted reference."""
    path = str(tmp_path / "memcpy.ckpt")
    ref = run_checkpointed_memcpy(FAULTY_SEED, "compiled")
    assert ref["n_faults"] > 0
    run_checkpointed_memcpy(
        FAULTY_SEED, "compiled",
        checkpoint_path=path, chunks_per_checkpoint=1, stop_after_checkpoints=2,
    )
    assert os.path.exists(path)
    resumed = run_checkpointed_memcpy(
        FAULTY_SEED, "compiled", checkpoint_path=path, chunks_per_checkpoint=1
    )
    assert resumed["resumed"]
    for key in _COMPARE_KEYS:
        assert resumed[key] == ref[key], key


# ------------------------------------------------------------- chaos wiring
def test_checkpoint_scenario_registered():
    assert "checkpoint" in SCENARIOS


def test_checkpoint_chaos_outcome_allowed():
    o = run_chaos("checkpoint", "compiled", FAULTY_SEED)
    assert o.scenario == "checkpoint"
    assert o.outcome in GOOD_OUTCOMES, o.error
    assert not o.violates_contract


# ------------------------------------------------------------ snapshot files
def test_snapshot_file_round_trip(tmp_path):
    path = str(tmp_path / "roundtrip.ckpt")
    run_checkpointed_memcpy(
        0, "naive", checkpoint_path=path,
        chunks_per_checkpoint=1, stop_after_checkpoints=1,
    )
    snap = load(path)
    assert snap.version == SNAPSHOT_VERSION
    assert snap.cycle > 0
    assert snap.meta["chunks_done"] == 1


def test_load_rejects_garbage_and_foreign_versions(tmp_path):
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a snapshot")
    with pytest.raises(SnapshotError):
        load(str(garbage))

    # A bare pickle — the format-2 envelope included — is not a snapshot file.
    wrong = tmp_path / "wrong-pickle.ckpt"
    with open(wrong, "wb") as fh:
        pickle.dump({"format": "repro-snapshot", "version": 2, "snapshot": None}, fh)
    with pytest.raises(SnapshotError):
        load(str(wrong))

    path = str(tmp_path / "versioned.ckpt")
    run_checkpointed_memcpy(
        0, "naive", checkpoint_path=path,
        chunks_per_checkpoint=1, stop_after_checkpoints=1,
    )
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    # The format this one replaced, and one from the future.
    for version in (SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 999):
        struct.pack_into(">I", data, 8, version)  # header: magic, version
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(SnapshotVersionError):
            load(path)


# ------------------------------------------------------ fresh-process restore
#: One memcpy-32 run; argv: phase (reference | capture | resume), snapshot
#: path, faulted (0 | 1).  It imports only what a user's script would, so a
#: resume process has loaded exactly the modules its rebuild loads.
_FRESH_RUN = """
import json, sys
phase, path, faulted = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
from repro.core.build import BeethovenBuild
from repro.kernels.memcpy import memcpy_config
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle

faults = None
if faulted:
    from repro.faults import FaultPlan
    faults = FaultPlan(seed=1, dram_read_flip_rate=0.05, core_hang_rate=0.5,
                       core_hang_cycles=300, core_hang_window=400)
build = BeethovenBuild(memcpy_config(n_cores=32), SimulationPlatform(), faults=faults)
handle = FpgaHandle(build.design)
pattern = bytes((i * 131 + 17) % 256 for i in range(1024))
src = handle.malloc(len(pattern))
dsts = [handle.malloc(len(pattern)) for _ in range(32)]
src.write(pattern)
handle.copy_to_fpga(src)
futs = [handle.call("Memcpy", "memcpy", core, src=src.fpga_addr, dst=dst.fpga_addr,
                    len_bytes=len(pattern)) for core, dst in enumerate(dsts)]
def events():  # read after restore: the log is restored state
    return handle.faults.events if handle.faults else []
if phase == "capture":
    from repro.snapshot import capture, save
    build.design.sim.run(700 - handle.cycle)
    save(capture(handle), path)
    print(json.dumps({"cycle": handle.cycle, "done": sum(f.done for f in futs),
                      "fired": sorted({e.kind for e in events() if e.cycle < handle.cycle})}))
    sys.exit()
if phase == "resume":
    from repro.snapshot import load, restore
    restore(handle, load(path))
from repro.faults.errors import FaultError
outcomes = []
for fut, dst in zip(futs, dsts):
    try:
        fut.get()
    except FaultError as exc:
        outcomes.append(type(exc).__name__)
        continue
    handle.copy_from_fpga(dst)
    outcomes.append(dst.read() == pattern)
print(json.dumps({
    "cycle": handle.cycle,
    "outcomes": outcomes,
    "latencies": [f.latency_cycles for f in futs],
    "events": [[e.cycle, e.site, e.kind, e.detail] for e in events()],
    "metrics": build.metrics(stable_only=True),
}, sort_keys=True, default=repr))
"""


@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "fault_plan"])
def test_restore_in_a_fresh_interpreter_is_bit_identical(faulted, tmp_path):
    """Capture mid-flight in one interpreter; rebuild, replay, load, restore
    and finish in another.  The snapshot resolves classes only in modules
    already imported, so this pins that a rebuild alone imports every class
    a payload names, however lazily the packages export."""
    from test_import_surface import fresh_interpreter

    path = str(tmp_path / "fresh.ckpt")

    def run(phase):
        out = fresh_interpreter(_FRESH_RUN, phase, path, str(int(faulted)))
        return json.loads(out.splitlines()[-1])

    reference = run("reference")
    captured = run("capture")
    assert 0 < captured["done"] < 32 and captured["cycle"] < reference["cycle"]
    if faulted:
        assert {"core_hang", "dram_flip", "detected"} <= set(captured["fired"])
    resumed = run("resume")
    assert resumed == reference
    assert all(o is True for o in reference["outcomes"])
class _CallbackMsg(NamedTuple):
    """A queue item that carries structure: tuples holding a callable are
    skipped whole, so it cannot be frozen."""

    payload: int
    on_done: Callable[[], None]


def test_unfreezable_queue_item_fails_at_capture_by_name():
    """It used to reach the payload as a skip sentinel and blow up in
    ``restore`` with ``TypeError: can only assign an iterable``."""
    from repro.baselines.delay_core import delay_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle
    from repro.snapshot import capture

    build = BeethovenBuild(delay_config(1, 100), AWSF1Platform())
    handle = FpgaHandle(build.design)
    chan = build.design.sim._channels[3]
    chan.push(_CallbackMsg(7, lambda: None))
    with pytest.raises(SnapshotError) as excinfo:
        capture(handle)
    assert repr(chan.name) in str(excinfo.value) and "_CallbackMsg" in str(excinfo.value)
    chan._staged.clear()
    assert capture(handle).cycle == handle.cycle  # and nothing else objects


@pytest.mark.parametrize("mode", MODES)
def test_capture_from_inside_a_tick_is_refused(mode):
    """A capture taken while a cycle's ticks run would freeze half a cycle
    (some components ticked, no channel committed), so both schedules
    refuse it; between runs the same design captures fine."""
    from repro.baselines.delay_core import delay_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle
    from repro.sim import Component
    from repro.snapshot import capture

    build = BeethovenBuild(delay_config(1, 50), AWSF1Platform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    refusals = []

    class _Capturer(Component):
        """Unhinted, so it ticks every cycle; tries one capture mid-tick."""

        _state = ()

        def tick(self, cycle):
            if not refusals:
                try:
                    capture(handle)
                    refusals.append(None)
                except SnapshotError as exc:
                    refusals.append(str(exc))

    build.design.sim.add(_Capturer("capturer"))
    handle.call("Delay", "run", 0, job=0).get(max_cycles=10_000)
    assert refusals and refusals[0] is not None and "mid-cycle" in refusals[0]
    assert capture(handle).cycle == handle.cycle


# ------------------------------------------------- state-dump caps + export
def test_compact_state_dump_caps_and_passthrough(tmp_path):
    from repro.sim.trace import compact_state_dump, export_state_dump

    dump = {
        "cycle": 5,
        "channels": {
            f"ch{i}": {"occupancy": i % 7, "staged": 0, "capacity": 8}
            for i in range(50)
        },
        "components": {f"comp{i}": {"state": "x" * 1000} for i in range(50)},
        "wake_heap": [(i, f"comp{i}") for i in range(50)],
        "restarts": {"count": 2},  # unknown keys pass through untouched
    }
    out = compact_state_dump(dump, max_channels=8, max_components=8, max_value_chars=64)
    assert len(out["channels"]) == 8 and out["channels_elided"] == 42
    assert len(out["components"]) == 8 and out["components_elided"] == 42
    assert len(out["wake_heap"]) == 8 and out["wake_heap_elided"] == 42
    assert out["restarts"] == {"count": 2}
    assert out["cycle"] == 5
    for state in out["components"].values():
        assert len(state["state"]) < 1000  # long reprs clipped in place
    # The capped dump is JSON-exportable (satellite: tools flag).
    path = tmp_path / "dump.json"
    export_state_dump(out, str(path))
    import json

    data = json.loads(path.read_text())
    assert data["channels_elided"] == 42


def test_deadlock_dump_is_capped(tmp_path):
    """DeadlockError on a large design carries a bounded dump."""
    from repro.baselines.spin_core import spin_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle
    from repro.sim import DeadlockError

    build = BeethovenBuild(spin_config(8, work_per_tick=4), AWSF1Platform())
    handle = FpgaHandle(build.design)
    fut = handle.call("Spin", "spin", 0, rounds=100_000, seed=1)
    with pytest.raises(DeadlockError) as excinfo:
        fut.get(max_cycles=50)
    dump = excinfo.value.dump
    assert len(dump.get("channels", {})) <= 64
    assert len(dump.get("components", {})) <= 64


# ------------------------------------------- deferred views / first-touch cells
def _memcpy32(mode, read_first=False):
    """The 32-core memcpy with one 4 KiB copy submitted on core 0;
    ``read_first`` reads the registry right after elaboration, before the
    handle adds its server."""
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle

    build = BeethovenBuild(memcpy_config(n_cores=32), AWSF1Platform(), scheduling=mode)
    if read_first:
        assert build.metrics()
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(4096), handle.malloc(4096)
    src.write(bytes(range(256)) * 16)
    handle.copy_to_fpga(src)
    handle.call("Memcpy", "memcpy", 0, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=4096)
    return build, handle


def _memcpy32_snapshot(mode, read_first, path):
    """Capture the 32-core memcpy 125 cycles into its copy."""
    from repro.snapshot import capture

    _build, handle = _memcpy32(mode, read_first)
    handle.run_cycles(125)
    snap = capture(handle)
    save(snap, path)
    return snap.payload, os.path.getsize(path)


@pytest.mark.parametrize("mode", MODES)
def test_capture_same_before_and_after_first_registry_read(mode, tmp_path):
    """Deferred metric adoption is invisible to snapshots: capturing a run
    whose registry was never read equals capturing one that read it early,
    and the runtime server's metrics ride in its own state."""
    unread = _memcpy32_snapshot(mode, False, str(tmp_path / "unread.ckpt"))
    read = _memcpy32_snapshot(mode, True, str(tmp_path / "read.ckpt"))
    assert "registry" not in unread[0] and unread == read
    (server,) = [st for name, st in unread[0]["sim"]["components"] if name == "server"]
    counters = [name for name, fz in server.items() if type(fz) is int and name[0] != "_"]
    states = [fz for fz in server.values() if isinstance(fz, list) and fz[0] == "~state"]
    assert states == [server["lock_wait_hist"]] and states[0][2] == "Histogram"
    assert len(counters) == 12 and server["busy_cycles"] > 0


@pytest.mark.parametrize("mode", MODES)
def test_capture_and_restore_adopt_no_metric_registration(mode):
    """Neither call reads the metric registry: on a design whose registry
    was never read, the deferred registrations stay pending through both."""
    from repro.snapshot import capture, restore

    build, handle = _memcpy32(mode)
    handle.run_cycles(125)
    registry = build.design.registry
    before = list(registry._pending), dict(registry._adopted)
    assert before[0]
    snap = capture(handle)
    assert (registry._pending, registry._adopted) == before

    build, handle = _memcpy32(mode)
    registry = build.design.registry
    before = list(registry._pending), dict(registry._adopted)
    restore(handle, snap)
    assert (registry._pending, registry._adopted) == before
    assert build.metrics()["runtime/server/busy_cycles"] > 0


def _copies(mode, n_calls):
    """Two-core memcpy with ``n_calls`` of its two copies submitted."""
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle

    build = BeethovenBuild(memcpy_config(n_cores=2), AWSF1Platform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    src = handle.malloc(4096)
    dsts = [handle.malloc(4096) for _ in range(2)]
    src.write(bytes(range(256)) * 16)
    handle.copy_to_fpga(src)
    for core in range(n_calls):
        handle.call("Memcpy", "memcpy", core, src=src.fpga_addr, dst=dsts[core].fpga_addr,
                    len_bytes=4096)
    return handle


@pytest.mark.parametrize("mode", MODES)
def test_restore_refuses_a_replay_with_a_call_missing(mode):
    """A replay that issued one ``call`` fewer than the captured run would
    drop that command's future and waiter: restore names the missing uid and
    writes nothing to the design."""
    from repro.snapshot import capture, restore

    handle = _copies(mode, 2)
    handle.run_cycles(300)
    snap = capture(handle)
    (missing,) = set(handle._calls) - set(_copies(mode, 1)._calls)

    handle = _copies(mode, 1)
    handle.run_cycles(7)
    before = pickle.dumps(capture(handle).payload)
    with pytest.raises(SnapshotError, match=rf"uid \[{missing}\]"):
        restore(handle, snap)
    assert pickle.dumps(capture(handle).payload) == before


def _two_clients(mode):
    """Two clients of a two-core delay design, three commands each."""
    from repro.baselines.delay_core import delay_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import SimulationPlatform
    from repro.runtime import FpgaHandle

    build = BeethovenBuild(delay_config(2, latency_cycles=40), SimulationPlatform(),
                           scheduling=mode)
    handle = FpgaHandle(build.design)
    clients = [handle.new_client(f"p{i}") for i in range(2)]
    futs = [client.call("Delay", "run", i, job=j)
            for j in range(3) for i, client in enumerate(clients)]
    return build, handle, futs


@pytest.mark.parametrize("mode", MODES)
def test_two_clients_resume_with_their_counters(mode):
    """Each client's ``submitted``/``completed`` counters travel with the
    handle: resumed after some commands finished, the run ends with the
    uninterrupted run's cycle and stable metrics."""
    from repro.snapshot import capture, restore

    build, handle, futs = _two_clients(mode)
    for fut in futs:
        fut.get()
    reference = (handle.cycle, build.metrics(stable_only=True))

    _build, handle, futs = _two_clients(mode)
    handle.run_until(lambda: sum(f.done for f in futs) >= 2)
    assert not all(f.done for f in futs)
    snap = capture(handle)
    build, handle, futs = _two_clients(mode)
    restore(handle, snap)
    assert int(handle._clients[0].completed) >= 1
    for fut in futs:
        fut.get()
    assert (handle.cycle, build.metrics(stable_only=True)) == reference


def test_restore_refuses_a_replay_with_a_client_missing():
    from repro.snapshot import capture, restore

    _build, handle, _futs = _two_clients(DEFAULT_SCHEDULING)
    handle.run_cycles(50)
    snap = capture(handle)
    _build, handle, _futs = _two_clients(DEFAULT_SCHEDULING)
    handle.new_client("extra")
    with pytest.raises(SnapshotError, match="made 2 clients, the replay 3"):
        restore(handle, snap)


def test_a_served_handle_is_refused():
    """The serving layer's queues and quotas are not snapshot state."""
    from repro.runtime import FpgaHandle
    from repro.serve import AcceleratorService, TenantConfig
    from repro.snapshot import capture

    build, _handle, _futs = _two_clients(DEFAULT_SCHEDULING)
    service = AcceleratorService(FpgaHandle(build.design), [TenantConfig(name="t")])
    with pytest.raises(SnapshotError, match=r"tenants \['t'\]"):
        capture(service.handle)


@pytest.mark.parametrize("edit", ["extra", "missing", "buckets", "malformed"])
def test_server_metrics_of_another_shape_are_a_typed_error(edit):
    """A payload whose server row names a metric the server lacks, leaves a
    declared one out, or holds a lock-wait histogram with other bucket
    bounds is refused with ``SnapshotError``; a histogram image of the wrong
    shape is refused by the first pass, before anything is written."""
    from repro.snapshot import capture, restore

    _build, handle = _memcpy32(DEFAULT_SCHEDULING)
    handle.run_cycles(50)
    snap = capture(handle)
    (server,) = [st for name, st in snap.payload["sim"]["components"] if name == "server"]
    buckets, counts, count, total = server["lock_wait_hist"][3]
    if edit == "extra":
        server["no_such_metric"] = server["timeouts"]
    elif edit == "missing":
        del server["timeouts"]
    elif edit == "buckets":
        server["lock_wait_hist"][3] = (tuple(b * 2 for b in buckets), counts, count, total)
    else:
        server["lock_wait_hist"][3] = (buckets, counts[:-1], count, total)
    _build, handle = _memcpy32(DEFAULT_SCHEDULING)
    handle.run_cycles(50)
    before = capture(handle).payload
    message = {"buckets": "bucket bounds .* not the same design",
               "malformed": "malformed snapshot: a histogram"}.get(edit, "RuntimeServer declares the fields")
    with pytest.raises(SnapshotError, match=message):
        restore(handle, snap)
    if edit != "buckets":  # refused by the first pass: nothing was written
        assert capture(handle).payload == before


def _memcpy32_design():
    build, handle = _memcpy32("compiled")
    handle.run_cycles(400)
    return build, handle


def _hetero_design():
    from repro.runtime import FpgaHandle
    from repro.serve.scenarios import hetero_build

    build = hetero_build()
    handle = FpgaHandle(build.design)
    futs = [handle.call(system, io, core, job=job)
            for job, (system, io) in enumerate([("Gemm", "gemm"), ("Attn", "attn")] * 2)
            for core in range(2)]
    futs[0].get()
    return build, handle


def _faulted_design():
    build, handle, _futs, _dsts, _pattern = _build_memcpy(FAULTY_SEED, "compiled")
    handle.run_cycles(1500)
    return build, handle


def _clients_design():
    build, handle, futs = _two_clients("compiled")
    futs[0].get()
    return build, handle


class _Fields:
    """An object's attributes as a mapping (for a slotted one)."""

    def __init__(self, obj):
        self.obj = obj

    def __getitem__(self, name):
        return getattr(self.obj, name)

    def __setitem__(self, name, value):
        setattr(self.obj, name, value)


def _overwrite_counted_state(handle, offset):
    """Overwrite every int counter and histogram a registry view reads
    through its owner — the server's and the clients' declared ones, the
    DRAM controllers' counters and their banks' row-buffer counts, the fault
    ``counts`` — each int with its own sentinel; returns the sentinels."""
    from repro.dram.controller import MemoryController
    from repro.obs.registry import Histogram

    server = handle.server
    tables = [(vars(server), [name for name in type(server)._state if name[0] != "_"])]
    tables += [(vars(client), type(client)._state) for client in handle._clients]
    for comp in handle.design.sim._components:
        if isinstance(comp, MemoryController):
            tables.append((vars(comp), [k for k in comp._stat_views() if k in vars(comp)]))
            tables += [(_Fields(bank), ("activations", "row_hits", "row_misses"))
                       for bank in comp.banks]
    if handle.faults is not None:
        tables.append((handle.faults.counts, list(handle.faults.counts)))
    sentinels = []
    for table, names in tables:
        for name in names:
            if isinstance(table[name], Histogram):
                table[name].observe(offset)
            elif type(table[name]) is int:
                table[name] = offset + len(sentinels)
                sentinels.append(table[name])
    return sentinels


@pytest.mark.parametrize(
    "make", [_memcpy32_design, _hetero_design, _faulted_design, _clients_design],
    ids=["memcpy32", "serve_hetero", "fault_plan", "two_clients"])
def test_every_owned_metric_is_captured_with_its_owner(make):
    """Every counter and histogram a registry view reads is captured through
    the object that holds it: overwrite all of them after the capture (each
    one moves the dump), restore, and the whole registry dump reads its
    captured values again."""
    from repro.snapshot import capture, restore

    build, handle = make()
    snap = capture(handle)
    registry = build.design.registry
    captured = registry.dump()
    assert any(type(value) is int and value for value in captured.values())
    sentinels = _overwrite_counted_state(handle, 10**9)
    # The server's 12 counters, one controller's 6 and its banks' 3 each (16 banks).
    assert len(sentinels) >= 12 + 6 + 3 * 16
    overwritten = registry.dump()
    # Every view reads through its owner: each sentinel and the lock-wait
    # histogram's new sample show in the dump.
    assert set(sentinels) <= {value for value in overwritten.values() if type(value) is int}
    lock_wait = "runtime/server/lock_wait"
    assert overwritten[lock_wait]["count"] == captured[lock_wait]["count"] + 1
    restore(handle, snap)
    assert registry.dump() == captured


def _a3_with_pending_load(mode):
    """One A3 core with its K/V load submitted but not yet run: both
    scratchpads are still untouched."""
    from repro.core.build import BeethovenBuild
    from repro.kernels.attention import a3_config
    from repro.platforms import SimulationPlatform
    from repro.runtime import FpgaHandle

    dim = n_keys = 16
    build = BeethovenBuild(a3_config(1, dim, n_keys), SimulationPlatform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    pk, pv = handle.malloc(dim * n_keys), handle.malloc(dim * n_keys)
    for ptr, salt in ((pk, 3), (pv, 7)):
        ptr.write(bytes((i * salt + 1) % 251 for i in range(dim * n_keys)))
        handle.copy_to_fpga(ptr)
    fut = handle.call("A3", "load_kv", 0, key_addr=pk.fpga_addr, value_addr=pv.fpga_addr)
    core = build.design.systems[0].cores[0].core
    return handle, fut, [core.keys_sp.mem, core.values_sp.mem]


@pytest.mark.parametrize("mode", MODES)
def test_untouched_scratchpad_is_restored_as_state(mode):
    """"Never touched" is state: restoring such a snapshot over a scratchpad
    that has since been written must drop the live cells, and the run must
    then continue exactly like the uninterrupted one."""
    from repro.snapshot import capture, restore

    handle, fut, mems = _a3_with_pending_load(mode)
    assert all(mem._cells is None for mem in mems)
    snap = capture(handle)
    fut.get()
    reference = (handle.cycle, [list(mem.cells()) for mem in mems])
    assert any(any(cells) for cells in reference[1])

    handle, fut, mems = _a3_with_pending_load(mode)
    for mem in mems:
        mem.cells()[:] = [0xAB] * mem.n_rows
    restore(handle, snap)
    assert all(mem.cells() == [0] * mem.n_rows for mem in mems)
    fut.get()
    assert (handle.cycle, [list(mem.cells()) for mem in mems]) == reference


def _a3_attending(mode, run_load):
    """One A3 core with ``load_kv`` and an ``attend`` over four queries
    submitted; ``run_load`` finishes the K/V load and runs on until the
    attention pipeline holds arrays in its stage slots and FIFOs."""
    import numpy as np

    from repro.core.build import BeethovenBuild
    from repro.kernels.attention import a3_config
    from repro.platforms import SimulationPlatform
    from repro.runtime import FpgaHandle

    dim = n_keys = 16
    n_queries = 4
    # ``mode=None`` names no schedule: what a build hands out by default.
    named = {} if mode is None else {"scheduling": mode}
    build = BeethovenBuild(a3_config(1, dim, n_keys), SimulationPlatform(), **named)
    handle = FpgaHandle(build.design)
    rng = np.random.default_rng(11)
    ptrs = []
    for nbytes in (dim * n_keys, dim * n_keys, dim * n_queries):
        ptr = handle.malloc(nbytes)
        ptr.write(rng.integers(-40, 40, nbytes).astype(np.int8).tobytes())
        handle.copy_to_fpga(ptr)
        ptrs.append(ptr)
    out = handle.malloc(dim * n_queries)
    load = handle.call("A3", "load_kv", 0, key_addr=ptrs[0].fpga_addr, value_addr=ptrs[1].fpga_addr)
    if run_load:
        load.get()
    attend = handle.call(
        "A3", "attend", 0, query_addr=ptrs[2].fpga_addr, out_addr=out.fpga_addr,
        n_queries=n_queries, temp_q=1 << 12,
    )
    core = build.design.systems[0].cores[0].core
    if run_load:
        while not (core._s2 is not None and core._fifo_scores and core.queries_processed == 0):
            handle.run_cycles(1)
            assert handle.cycle < 50_000
    return handle, attend, out, core


@pytest.mark.parametrize("mode", ("naive", None))
def test_numpy_state_round_trips_mid_attention(mode, tmp_path):
    """A3 keeps K/V and its stage FIFOs as ndarrays: captured after the K/V
    load with an attend in flight, saved, and restored onto a rebuilt design
    that has not run a cycle, the run continues bit-identically."""
    import numpy as np

    from repro.snapshot import capture, restore

    def finish(handle, attend, out):
        attend.get()
        handle.copy_from_fpga(out)
        return handle.cycle, attend.latency_cycles, out.read()

    handle, attend, out, core = _a3_attending(mode, run_load=True)
    arrays = [core._k_mat, core._v_mat, core._s2[1], *core._fifo_scores]
    assert all(isinstance(a, np.ndarray) for a in arrays)
    path = str(tmp_path / "a3.ckpt")
    save(capture(handle), path)
    reference = finish(handle, attend, out)
    assert any(reference[2])

    handle, attend, out, core = _a3_attending(mode, run_load=False)
    assert core._k_mat is None
    restore(handle, load(path))
    restored = [core._k_mat, core._v_mat, core._s2[1], *core._fifo_scores]
    for got, want in zip(restored, arrays):
        assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()
    assert finish(handle, attend, out) == reference


# --------------------------------------------- the DRAM window and its indexes
def test_dram_window_and_indexes_restore_onto_a_rebuilt_design(tmp_path):
    """The window's per-bank runs, each transaction's ``run`` and the per-ID
    queues and ready entries hold the *same* run, queue and transaction
    objects; a restore that rebuilt them as copies would leave the
    controller extending one run while issuing from another, or retiring
    from another queue.  The live-bank, want-prep and ready indexes are
    restored with them, and stay exact to the end under either schedule."""
    from test_dram_indexed import check_index, memcpy32_submitted

    from repro.snapshot import capture, restore

    def submitted(scheduling=DEFAULT_SCHEDULING):
        # Copies long enough that early cores write while later ones still
        # read; captured under the default schedule.
        build, handle, futs = memcpy32_submitted(scheduling, active=8, size=16384)
        return build, handle, futs

    def outcome(build, handle, futs):
        for fut in futs:
            fut.get()
        return handle.cycle, [f.latency_cycles for f in futs], build.metrics(stable_only=True)

    build, handle, futs = submitted()
    assert build.design.sim.scheduling == "compiled"
    mc = build.design.controller
    # Reads returning, writes part-way through their columns, window busy.
    # (A ready B is answered in the tick that completes it unless the B
    # channel is full, so ``_b_ready`` is empty between cycles here.)
    while not (
        mc.window_columns > 8
        and mc._r_cand
        and any(txn.cols_done for txn in mc._write_txns.values())
    ):
        handle.run_cycles(1)
        assert handle.cycle < 20_000
    path = str(tmp_path / "window.ckpt")
    save(capture(handle), path)
    reference = outcome(build, handle, futs)

    for restore_mode in ("naive", "compiled"):
        build, handle, futs = submitted(restore_mode)
        restore(handle, load(path))
        mc = build.design.controller
        runs = [run for bank_runs in mc._bank_runs for run in bank_runs]
        assert mc.window_columns > 8 and mc._r_cand and mc._live_banks
        check_index(mc)  # per-bank lists and ``txn.run`` hold the same runs
        for run in runs:
            txn, is_write = run.txn, run.is_write
            assert txn is (mc._write_txns if is_write else mc._read_txns)[txn.tag]
        assert any(txn.run is run for run in runs for txn in mc._read_txns.values())
        for is_write, _pos, q, returns in mc._ready:
            issue, ret = (mc._id_write_issue, mc._id_write_return) if is_write else (
                mc._id_read_issue, mc._id_read_return)
            assert q is issue[q[0].axi_id] and returns is ret[q[0].axi_id]
        for txns, queues in ((mc._read_txns, mc._id_read_return), (mc._write_txns, mc._id_write_return)):
            assert all(any(txn is t for t in queues[txn.axi_id]) for txn in txns.values())
        assert outcome(build, handle, futs) == reference
        check_index(mc)


# ------------------------------------------- the server's lazily held poll grid
@pytest.mark.parametrize("restore_mode", ("naive", "compiled"))
def test_sleeping_server_poll_grid_restores_under_either_schedule(restore_mode):
    """Under ``compiled`` the server sleeps through empty poll visits and
    leaves ``_next_poll`` behind; ``_poll`` catches up in closed form at the
    next tick whichever schedule runs it, so the lazy value *is* the state:
    captured as it stands, it restores onto a rebuilt design under the eager
    schedule as well, and both continue like the uninterrupted run."""
    from repro.runtime import FpgaHandle
    from repro.serve.scenarios import hetero_build
    from repro.snapshot import capture, restore

    def submitted(mode):
        build = hetero_build(mode=mode)
        handle = FpgaHandle(build.design)
        futs = [handle.call("Gemm", "gemm", 0, job=1), handle.call("Attn", "attn", 1, job=2)]
        return build, handle, futs

    def outcome(build, handle, futs):
        for fut in futs:
            fut.get()
        handle.run_cycles(500)  # and back to an idle server
        return handle.cycle, [f.latency_cycles for f in futs], build.metrics(stable_only=True)

    build, handle, futs = submitted("compiled")
    handle.run_cycles(1150)  # both dispatched; the attn answer read, gemm pending
    period = build.design.platform.host.response_poll_cycles
    lazy = handle.server._next_poll
    assert futs[1].done and not futs[0].done
    assert handle.cycle - lazy >= 2 * period  # >= 2 grid points elided
    snap = capture(handle)
    reference = outcome(build, handle, futs)

    eager = submitted("naive")
    eager[1].run_cycles(1150)
    assert eager[1].server._next_poll >= eager[1].cycle  # stepped, never behind
    assert outcome(*eager) == reference

    build, handle, futs = submitted(restore_mode)
    restore(handle, snap)
    assert handle.server._next_poll == lazy
    assert outcome(build, handle, futs) == reference


# --------------------------------------------- AXI payloads in flight on the NoC
def _hop_payloads(sim) -> set:
    """``(hop class, channel)`` of every AXI R/W/B item next to a NoC hop:
    in a channel the hop forwards between, or in an ``AxiPipe`` delay line."""
    from repro.axi import BResp, RBeat, WBeat
    from repro.noc.axi_node import AxiBufferNode, AxiPipe
    from repro.noc.idmap import IdCompressor

    def kind(item):
        if isinstance(item, WBeat):
            return "w"
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], int):
            return {RBeat: "r", BResp: "b"}.get(type(item[1]))
        return None

    found = set()
    for comp in sim._components:
        if type(comp) not in (AxiBufferNode, AxiPipe, IdCompressor):
            continue
        items = [it for ch in comp.wake_channels() for it in (*ch._items, *ch._staged)]
        if isinstance(comp, AxiPipe):
            items += [it for q in comp._delay for _due, it in q]
        found.update((type(comp).__name__, k) for k in map(kind, items) if k)
    return found


def _memcpy2_submitted(scheduling):
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle

    build = BeethovenBuild(memcpy_config(n_cores=2), AWSF1Platform(), scheduling=scheduling)
    handle = FpgaHandle(build.design)
    src = handle.malloc(8192)
    src.write(bytes((i * 131 + 17) % 256 for i in range(8192)))
    handle.copy_to_fpga(src)
    dsts = [handle.malloc(8192) for _ in range(2)]
    futs = [
        handle.call("Memcpy", "memcpy", c, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=8192)
        for c, dst in enumerate(dsts)
    ]
    return build, handle, futs, dsts


def _memcpy2_outcome(build, handle, futs, dsts):
    for fut in futs:
        fut.get()
    out = []
    for dst in dsts:
        handle.copy_from_fpga(dst)
        out.append(dst.read())
    return handle.cycle, out, build.metrics(stable_only=True)


def test_payloads_in_flight_on_every_hop_class_resume_bit_identically(tmp_path):
    """Captures taken while R, W and B payloads sit on every NoC hop class
    (buffer node, SLR pipe, ID compressor) resume, from the file, exactly
    like the uninterrupted run under both schedules: a thawed beat is still
    an ``RBeat`` with its ``.data``, re-tagged by the hops that follow."""
    from repro.snapshot import capture, restore

    outcome = _memcpy2_outcome
    # Survey: which (hop class, channel) pairs each cycle holds.
    build, handle, futs, _ = _memcpy2_submitted(DEFAULT_SCHEDULING)
    survey = []
    while not all(f.done for f in futs):
        handle.run_cycles(1)
        survey.append((handle.cycle, _hop_payloads(build.design.sim)))
    wanted = {(hop, ch) for hop in ("AxiBufferNode", "AxiPipe", "IdCompressor") for ch in "rwb"}
    assert set().union(*(seen for _, seen in survey)) == wanted
    # The fewest capture cycles (greedily) that between them cover it all.
    stops, missing = [], set(wanted)
    while missing:
        cycle, seen = max(survey, key=lambda cs: len(cs[1] & missing))
        stops.append(cycle)
        missing -= seen
    stops.sort()

    build, handle, futs, dsts = _memcpy2_submitted(DEFAULT_SCHEDULING)
    for stop in stops:
        handle.run_cycles(stop - handle.cycle)
        save(capture(handle), str(tmp_path / f"c{stop}.ckpt"))
    reference = outcome(build, handle, futs, dsts)
    assert reference[1] == [bytes((i * 131 + 17) % 256 for i in range(8192))] * 2

    in_flight = dict(survey)
    for stop in stops:
        for mode in MODES:
            build, handle, futs, dsts = _memcpy2_submitted(mode)
            restore(handle, load(str(tmp_path / f"c{stop}.ckpt")))
            # Thawed with their classes: the same payload kinds on the same hops.
            assert _hop_payloads(build.design.sim) == in_flight[stop]
            assert outcome(build, handle, futs, dsts) == reference, (stop, mode)


@pytest.mark.parametrize("mode", MODES)
def test_a_restored_pipe_keeps_its_delay_lines_and_drains_like_the_live_one(mode):
    """``AxiPipe`` binds its delay-line deques (its tick closure and its
    ``next_event`` walk them), and a restore refills them in place: captured
    with items in flight and restored into a rebuild, every pipe holds the
    very deques it was built with, and from there its hint and what it
    drains, cycle by cycle, equal the uninterrupted run's (up to the
    transaction tags of requests issued after the capture, which a
    process-wide counter numbers)."""
    from repro.axi import ARReq, AWReq, WBeat
    from repro.noc.axi_node import AxiPipe
    from repro.snapshot import capture, restore

    def untagged(item):
        if isinstance(item, (ARReq, AWReq)):
            return type(item).__name__, item.axi_id, item.addr, item.length
        if isinstance(item, WBeat):
            return item
        axi_id, payload = item
        return axi_id, payload._replace(tag=-1)

    def pipes(build):
        return [c for c in build.design.sim._components if isinstance(c, AxiPipe)]

    def in_flight(build):
        return sum(len(q) for pipe in pipes(build) for q in pipe._delay)

    def trace(build, handle, cycles):
        steps = []
        for _ in range(cycles):
            handle.run_cycles(1)
            for pipe in pipes(build):
                d, u = pipe.down.port, pipe.up
                drained = [[*map(untagged, ch._items)] for ch in (d.ar, d.aw, d.w, u.r, u.b)]
                steps.append((pipe.next_event(handle.cycle), drained))
        return steps

    build, handle, _futs, _ = _memcpy2_submitted(mode)
    while not in_flight(build):
        handle.run_cycles(1)
    snap = capture(handle)
    reference = trace(build, handle, 300)

    build, handle, _futs, _ = _memcpy2_submitted(mode)
    built = [pipe._delay for pipe in pipes(build)]
    restore(handle, snap)
    assert in_flight(build)
    for lines, pipe in zip(built, pipes(build)):
        assert all(a is b for a, b in zip(lines, pipe._delay, strict=True))
    assert trace(build, handle, 300) == reference


def test_naive_restore_into_the_live_simulator_rebuilds_the_tick_bodies():
    """``naive`` steps each streaming-path model through its cached
    ``compile_tick`` closure.  A capture taken once those exist, restored
    into the same live simulator after it ran on, finishes exactly like the
    uninterrupted run: the restore drops every cached closure, and the next
    tick builds it again on the restored state."""
    from repro.snapshot import capture, restore

    reference = _memcpy2_outcome(*_memcpy2_submitted("naive"))
    build, handle, futs, dsts = _memcpy2_submitted("naive")
    sim = build.design.sim
    handle.run_cycles(400)
    assert not any(f.done for f in futs)
    cached = [c for c in sim._components if c._tick_body is not None]
    assert len(cached) >= 5
    snap = capture(handle)
    handle.run_cycles(300)
    restore(handle, snap)
    assert all(c._tick_body is None for c in sim._components)
    assert handle.cycle == snap.cycle
    assert _memcpy2_outcome(build, handle, futs, dsts) == reference
    assert all(c._tick_body is not None for c in cached)
