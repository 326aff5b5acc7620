"""Deterministic checkpoint/restore: the ``repro.snapshot`` contract.

The core promise: ``restore(snapshot); run(N)`` is bit-identical — final
cycle, stable metrics, fault fingerprint, output data — to the
uninterrupted run, under every scheduling backend, with active fault
plans, across a save/load disk cycle.  On top of that contract ride the
three integration layers this file also covers: dist fork-engine worker
failover (a SIGKILLed worker rolls back to the last barrier checkpoint
instead of raising PartitionSyncTimeout), farm job resume after crashes
and hung-job kills, and the chaos ``checkpoint`` scenario.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import struct
import time
from typing import Callable, NamedTuple

import pytest

from repro.faults.chaos import GOOD_OUTCOMES, MODES, SCENARIOS, run_chaos
from repro.snapshot import SNAPSHOT_VERSION, SnapshotError, SnapshotVersionError
from repro.snapshot.scenario import (
    kill_and_resume_differential,
    run_checkpointed_memcpy,
)
from repro.snapshot.store import job_checkpoint_path, load, save

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
    ref = run_checkpointed_memcpy(FAULTY_SEED, "selective")
    assert ref["n_faults"] > 0
    run_checkpointed_memcpy(
        FAULTY_SEED, "selective",
        checkpoint_path=path, checkpoint_every_chunks=1, stop_after_checkpoints=2,
    )
    assert os.path.exists(path)
    resumed = run_checkpointed_memcpy(
        FAULTY_SEED, "selective", checkpoint_path=path, checkpoint_every_chunks=1
    )
    assert resumed["resumed"]
    for key in _COMPARE_KEYS:
        assert resumed[key] == ref[key], key


# ------------------------------------------------------------- dist failover
def test_dist_fork_failover_survives_worker_kill(tmp_path):
    """A SIGKILLed worker under barrier checkpointing is respawned and the
    run rolls back — same final state as never having been killed, no
    PartitionSyncTimeout."""
    r = kill_and_resume_differential(FAULTY_SEED, "dist:fork", str(tmp_path))
    assert r["killed"]
    assert r["restarts"] >= 1, "failover never fired"
    assert r["outcome"] != "unexpected", r["error"]
    assert r["match"], r["error"]


def test_dist_serial_has_no_workers_to_kill(tmp_path):
    with pytest.raises(ValueError):
        kill_and_resume_differential(0, "dist:serial", str(tmp_path))


# ------------------------------------------------------------- chaos wiring
def test_checkpoint_scenario_registered():
    assert "checkpoint" in SCENARIOS


def test_checkpoint_chaos_outcome_allowed():
    o = run_chaos("checkpoint", "fast_forward", FAULTY_SEED)
    assert o.scenario == "checkpoint"
    assert o.outcome in GOOD_OUTCOMES, o.error
    assert not o.violates_contract


# ------------------------------------------------------------ snapshot files
def test_snapshot_file_round_trip(tmp_path):
    path = str(tmp_path / "roundtrip.ckpt")
    run_checkpointed_memcpy(
        0, "naive", checkpoint_path=path,
        checkpoint_every_chunks=1, stop_after_checkpoints=1,
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
        checkpoint_every_chunks=1, stop_after_checkpoints=1,
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


def test_job_checkpoint_path_is_version_addressed(tmp_path, monkeypatch):
    """A snapshot format bump must orphan old checkpoints, not restore them."""
    import repro.snapshot.store as store_mod

    p1 = job_checkpoint_path(str(tmp_path), "fp")
    assert p1.endswith(".ckpt") and str(tmp_path) in p1
    assert job_checkpoint_path(str(tmp_path), "fp") == p1
    assert job_checkpoint_path(str(tmp_path), "other") != p1
    for version in (SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1):
        monkeypatch.setattr(store_mod, "SNAPSHOT_VERSION", version)
        assert job_checkpoint_path(str(tmp_path), "fp") != p1


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
def _crashy_job(x):
    from repro.snapshot.store import job_checkpoint, note_job_resumed

    path, every = job_checkpoint()
    assert path and every == 4, (path, every)
    if os.path.exists(path):
        note_job_resumed()
        return x * 2
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("ckpt")
    os._exit(3)


def _sleepy_job(x):
    from repro.snapshot.store import job_checkpoint, note_job_resumed

    path, _every = job_checkpoint()
    if os.path.exists(path):
        note_job_resumed()
        return x + 100
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("ckpt")
    time.sleep(60)


def _needs_multiprocessing():
    from repro.farm.pool import multiprocessing_available

    if not multiprocessing_available():
        pytest.skip("multiprocessing unavailable")


def test_farm_job_resumes_after_worker_crash(tmp_path):
    _needs_multiprocessing()
    from repro.farm import Farm, Job

    farm = Farm(n_workers=2, cache_dir=str(tmp_path), default_timeout_s=30.0)
    (res,) = farm.run([Job(_crashy_job, (21,), checkpoint_every=4, cache=False)])
    assert res.ok and res.value == 42
    assert res.resumed_from_checkpoint
    assert res.crashes == 1 and res.attempts == 2
    assert not os.path.exists(res.job.checkpoint_path)  # retired on success
    assert farm.metrics()["farm/checkpoint_resumes"] == 1


def test_farm_job_resumes_after_hung_job_timeout(tmp_path):
    _needs_multiprocessing()
    from repro.farm import Farm, Job

    # n_workers=2 forces the real WorkerPool: the serial pool cannot enforce
    # timeouts (they are advisory in-process), so it cannot kill the hang.
    farm = Farm(n_workers=2, cache_dir=str(tmp_path), default_timeout_s=30.0)
    (res,) = farm.run(
        [Job(_sleepy_job, (7,), checkpoint_every=4, cache=False, timeout_s=2.0)]
    )
    assert res.ok and res.value == 107
    assert res.resumed_from_checkpoint
    assert not res.timed_out  # the *final* attempt completed
    assert res.attempts == 2


def test_farm_timeout_without_checkpoint_still_fails(tmp_path):
    """checkpoint-less hung jobs keep the historical fail-fast semantics."""
    _needs_multiprocessing()
    from repro.farm import Farm, Job

    farm = Farm(n_workers=2, cache_dir=str(tmp_path), default_timeout_s=30.0)
    (res,) = farm.run([Job("time:sleep", (60,), cache=False, timeout_s=1.5)])
    assert not res.ok
    assert res.timed_out


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
    getattr(build.design.sim, "shutdown", lambda: None)()


# ----------------------------------------------------------- dist defaults
def test_dist_checkpoint_config_validation():
    from repro.dist import DistConfig, DistError

    assert DistConfig().checkpoint_every_slices == 0  # fail-fast by default
    with pytest.raises(DistError):
        DistConfig(checkpoint_every_slices=-1)
    with pytest.raises(DistError):
        DistConfig(max_restarts=-1)


# ------------------------------------------- deferred views / first-touch cells
def _memcpy32_snapshot(mode, read_first, path):
    """Capture the 32-core memcpy design mid-run; ``read_first`` reads the
    registry right after elaboration, before the handle adds its server."""
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle
    from repro.snapshot import capture

    build = BeethovenBuild(memcpy_config(n_cores=32), AWSF1Platform(), scheduling=mode)
    if read_first:
        assert build.metrics()
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(4096), handle.malloc(4096)
    src.write(bytes(range(256)) * 16)
    handle.copy_to_fpga(src)
    handle.call("Memcpy", "memcpy", 0, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=4096)
    handle.run_cycles(125)
    snap = capture(handle)
    save(snap, path)
    return snap.payload["registry"], os.path.getsize(path)


@pytest.mark.parametrize("mode", MODES)
def test_capture_same_before_and_after_first_registry_read(mode, tmp_path):
    """Deferred metric adoption is invisible to snapshots: capturing a run
    whose registry was never read equals capturing one that read it early."""
    unread = _memcpy32_snapshot(mode, False, str(tmp_path / "unread.ckpt"))
    read = _memcpy32_snapshot(mode, True, str(tmp_path / "read.ckpt"))
    assert unread[0] and unread == read


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
    build = BeethovenBuild(a3_config(1, dim, n_keys), SimulationPlatform(), scheduling=mode)
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
    """The window, the per-bank lists and the per-ID queues hold the *same*
    column and transaction objects; a restore that rebuilt them as copies
    would leave the controller issuing from one and retiring from another.
    The live-bank and active-ID indexes are restored with them, and stay
    exact to the end under either controller body."""
    from test_dram_indexed import check_index, memcpy32_submitted

    from repro.snapshot import capture, restore

    def submitted(scheduling=None):
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
        len(mc._sched) > 8
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
        window = list(mc._sched.values())
        assert len(window) > 8 and mc._r_cand and mc._live_banks
        check_index(mc)  # per-bank lists hold the window's own objects
        for req in window:
            assert req.txn is (mc._write_txns if req.is_write else mc._read_txns)[req.txn.tag]
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
