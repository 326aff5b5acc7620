"""The call lifecycle: the handle keeps live calls only.

A call is live from ``call()`` until its future settles; then it leaves the
handle's call table and lives only as long as the host program holds its
future.  These tests bound what a settled, dropped call leaves behind, check
that held futures keep their outcomes, and pin the replay contract a
snapshot restore keeps: held outcomes come back, a replayed call the
capture has no outcome for raises a typed error instead of hanging, and a
replay that issued fewer calls is refused.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.baselines.delay_core import delay_config
from repro.core import BeethovenBuild
from repro.obs import Observability
from repro.platforms import AWSF1Platform, SimulationPlatform
from repro.runtime import FpgaHandle
from repro.snapshot import (
    SNAPSHOT_VERSION,
    OutcomeNotCaptured,
    SnapshotError,
    SnapshotVersionError,
    capture,
    load,
    restore,
    save,
)
from repro.snapshot.engine import T_REF, infra_ids

N_CORES = 4
WAVE = 64  # calls in flight at once: the live table never outgrows this


def _delay_handle(**build):
    design = BeethovenBuild(delay_config(N_CORES, latency_cycles=20), SimulationPlatform(),
                            observability=Observability.off(), **build).design
    return FpgaHandle(design)


def _waves(handle, n_calls, keep=None):
    """Issue ``n_calls`` in waves of :data:`WAVE`, settling each wave before
    the next; the futures are dropped unless ``keep`` collects them."""
    for start in range(0, n_calls, WAVE):
        futs = [handle.call("Delay", "run", i % N_CORES, job=i)
                for i in range(start, min(start + WAVE, n_calls))]
        handle.run_until(lambda: all(fut.done for fut in futs))
        if keep is not None:
            keep += futs


# ------------------------------------------------------------ retention
def test_a_settled_dropped_call_leaves_at_most_100_bytes():
    """4 000 calls whose futures are dropped: the handle's tables, the
    server and the design keep no more than 100 B per call, freed by
    reference counting alone (the cycle collector is off while they run)."""
    handle = _delay_handle()
    _waves(handle, 2 * WAVE)  # tables, histograms and queues reach capacity
    gc.collect()
    tracemalloc.start()
    try:
        gc.disable()
        before = tracemalloc.get_traced_memory()[0]
        _waves(handle, 4000)
        per_call = (tracemalloc.get_traced_memory()[0] - before) / 4000
    finally:
        gc.enable()
        tracemalloc.stop()
    assert handle.live_calls == 0 and handle.issued_calls == 2 * WAVE + 4000
    assert per_call <= 100, f"{per_call:.0f} B retained per settled, dropped call"
    host = capture(handle).payload["host"]
    assert host["calls"] == {} and host["issued"] == handle.issued_calls


def test_held_futures_keep_their_outcomes():
    """The twin of the bound above: a program that holds every future can
    read every outcome, and a capture keeps each one."""
    handle = _delay_handle()
    held = []
    _waves(handle, 4000, keep=held)
    assert handle.live_calls == 0
    assert all(fut.done and fut.get() == {"ok": True} for fut in held)
    assert all(fut.latency_cycles > 0 for fut in held)
    calls = capture(handle).payload["host"]["calls"]
    assert list(calls) == list(range(1, 4001))
    assert all(c["completed_cycle"] == f._completed_cycle for c, f in zip(calls.values(), held))


def test_a_served_run_drains_to_no_live_call():
    """Once a served run drained, the handle holds no call, and the load
    generator that drove it is freed when it goes out of scope, without
    the cycle collector: a settled ticket no longer refers back to it."""
    from repro.serve import LoadGenerator
    from repro.serve.scenarios import run_scenario

    gc.collect()
    gc.disable()
    try:
        _report, service, _build = run_scenario("smoke", seed=1, n_requests=4)
        assert not [obj for obj in gc.get_objects() if type(obj) is LoadGenerator]
    finally:
        gc.enable()
    assert service.drained() and service.handle.live_calls == 0
    assert service.handle.issued_calls > 0


# ------------------------------------------------------ the infra id cache
def test_the_id_cache_follows_membership_not_length():
    """Capture with calls A and B live; A settles and C is issued, so the
    table has the same length again: the second capture's references name
    B and C, each by its own uid."""
    build = BeethovenBuild(delay_config(2, latency_cycles=300), AWSF1Platform())
    handle, sim = FpgaHandle(build.design), build.design.sim
    a = handle.call("Delay", "run", 0, job=1)
    handle.run_cycles(100)
    b = handle.call("Delay", "run", 1, job=2)
    capture(handle)
    handle.run_until(lambda: a.done)
    assert not b.done
    c = handle.call("Delay", "run", 0, job=3)
    assert sorted(handle._calls) == [2, 3]
    snap = capture(handle)
    refs = infra_ids(sim, None, build.design.span_tracker, handle._calls)
    calls = {key: obj_id for obj_id, (kind, key) in refs.items() if kind == "call"}
    assert calls == {2: id(b._ctx), 3: id(c._ctx)}
    named, stack = set(), [snap.payload["sim"]]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack += node.values()
        elif isinstance(node, (list, tuple)):
            if isinstance(node, list) and node[:2] == [T_REF, "call"]:
                named.add(node[2])
            stack += node
    assert named == {2, 3}


# ----------------------------------------------------- the replay contract
def _program(mode):
    """Six delay commands on two cores, all issued at cycle 0."""
    build = BeethovenBuild(delay_config(2, latency_cycles=300), AWSF1Platform(), scheduling=mode)
    handle = FpgaHandle(build.design)
    futs = [handle.call("Delay", "run", i % 2, job=i) for i in range(6)]
    return build, handle, futs


def _finish(build, handle, futs):
    for fut in futs:
        fut.get()
    return handle.cycle, [fut.latency_cycles for fut in futs], build.metrics(stable_only=True)


@pytest.mark.parametrize("mode", ("naive", "compiled"))
def test_kill_and_resume_with_held_and_dropped_futures(mode, tmp_path):
    build, handle, futs = _program(mode)
    handle.run_until(lambda: all(fut.done for fut in futs[:4]))
    assert not any(fut.done for fut in futs[4:])
    latencies = [fut.latency_cycles for fut in futs[:4]]
    del futs[2], futs[0]  # the program drops two settled futures
    path = str(tmp_path / "ckpt")
    save(capture(handle), path)
    reference = _finish(build, handle, futs)

    build, handle, replayed = _program(mode)
    restore(handle, load(path))
    for uid in (1, 3):  # settled and dropped before the capture
        with pytest.raises(OutcomeNotCaptured, match=f"call uid {uid}:") as err:
            replayed[uid - 1].get()
        assert err.value.uid == uid and replayed[uid - 1].done
    held = [replayed[i] for i in (1, 3, 4, 5)]
    assert [fut.latency_cycles for fut in held[:2]] == [latencies[1], latencies[3]]
    assert handle.live_calls == 2
    assert _finish(build, handle, held) == reference


def test_a_replay_with_fewer_calls_is_refused_even_when_all_settled():
    """Only the issued count knows about calls settled and dropped before
    the capture; a replay that did not issue them is refused all the same."""
    build, handle, futs = _program("compiled")
    _finish(build, handle, futs)
    del futs
    snap = capture(handle)
    assert snap.payload["host"]["calls"] == {} and snap.payload["host"]["issued"] == 6

    build = BeethovenBuild(delay_config(2, latency_cycles=300), AWSF1Platform())
    handle = FpgaHandle(build.design)
    for i in range(4):
        handle.call("Delay", "run", i % 2, job=i)
    with pytest.raises(SnapshotError, match=r"the replay issued no call with uid \[5, 6\]: replay every call\(\)"):
        restore(handle, snap)


def test_a_replay_that_dropped_an_in_flight_call_is_refused():
    """An in-place restore whose program let a call that was in flight at
    the capture settle and dropped its future: the server's queues name
    that call, so the restore refuses before it writes anything."""
    build, handle, futs = _program("compiled")
    handle.run_cycles(100)
    snap = capture(handle)
    _finish(build, handle, futs)
    del futs
    with pytest.raises(SnapshotError, match=r"call uid 1 was in flight at the capture"):
        restore(handle, snap)


def test_a_version_17_file_is_refused(tmp_path):
    assert SNAPSHOT_VERSION == 20
    _build, handle, _futs = _program("compiled")
    snap = capture(handle)
    snap.version = 17
    path = str(tmp_path / "old.ckpt")
    save(snap, path)
    with pytest.raises(SnapshotVersionError, match="17"):
        load(path)
    with pytest.raises(SnapshotVersionError, match="17"):
        restore(handle, snap)
