"""Kill-and-resume differential: the snapshot determinism contract, end to end.

The scenario is the chaos harness's memcpy workload (seeded
:class:`~repro.faults.plan.FaultPlan` + chaos watchdog) driven in *fixed
cycle chunks* so checkpoints land at deterministic cycle boundaries.  The
run checkpoints to disk every N chunks (:func:`repro.snapshot.save`), a
forked victim process SIGKILLs itself at a seeded point, and the parent
resumes from the surviving checkpoint file by rebuilding the design,
replaying the host-side setup, and restoring.

The differential asserts the resumed run is bit-identical — outcome, final
cycle, fault fingerprint, stable metrics, output data — to one uninterrupted
reference run of the same seed.
"""

from __future__ import annotations

import os
import random
import signal
from typing import Any, Dict, List, Optional

from repro.faults.chaos import CHAOS_WATCHDOG, _classify, default_plan
from repro.faults.errors import FaultError
from repro.sim import DeadlockError
from repro.snapshot.engine import capture, restore
from repro.snapshot.store import load, save

#: Cycles per driver chunk.  Checkpoints, kills, and completion checks all
#: happen at chunk boundaries, so the chunk size is part of the scenario's
#: deterministic identity.
CHUNK = 500

#: Driver bound: a hang-scheduled run terminates (classified ``error``)
#: after this many chunks instead of spinning forever.
MAX_CHUNKS = 250

_SIZE = 8192
_N_CORES = 2


def _build_memcpy(seed: int, mode: str):
    """Elaborate the chaos memcpy design and replay the host-side setup.

    This function *is* the deterministic rebuild+replay the snapshot
    restore contract requires: calling it twice with the same arguments
    produces identical skeletons and identical command uids.
    """
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle

    build = BeethovenBuild(
        memcpy_config(n_cores=_N_CORES),
        AWSF1Platform(),
        scheduling=mode,
        faults=default_plan(seed),
        watchdog=CHAOS_WATCHDOG,
    )
    handle = FpgaHandle(build.design)
    pattern = bytes((i * 131 + 17 + seed) % 256 for i in range(_SIZE))
    src = handle.malloc(_SIZE)
    dsts = [handle.malloc(_SIZE) for _ in range(_N_CORES)]
    src.write(pattern)
    handle.copy_to_fpga(src)
    futs = [
        handle.call(
            "Memcpy", "memcpy", c,
            src=src.fpga_addr, dst=dsts[c].fpga_addr, len_bytes=_SIZE,
        )
        for c in range(_N_CORES)
    ]
    return build, handle, futs, dsts, pattern


def run_checkpointed_memcpy(
    seed: int,
    mode: str,
    *,
    checkpoint_path: Optional[str] = None,
    checkpoint_every_chunks: int = 0,
    kill_after_checkpoints: Optional[int] = None,
    stop_after_checkpoints: Optional[int] = None,
    max_chunks: int = MAX_CHUNKS,
) -> Dict[str, Any]:
    """One resumable chaos-memcpy run, driven in fixed :data:`CHUNK`s.

    * ``checkpoint_path``/``checkpoint_every_chunks`` — write a snapshot
      file every N chunks; if the file already exists the run *resumes from
      it* instead of starting over.
    * ``kill_after_checkpoints`` — SIGKILL our own process right after the
      Nth checkpoint write (the victim half of the differential).
    * ``stop_after_checkpoints`` — abandon the run (return early) after the
      Nth checkpoint; the in-process fallback when fork is unavailable.
    """
    build, handle, futs, dsts, pattern = _build_memcpy(seed, mode)
    sim = build.design.sim
    resumed = False
    checkpoints = 0
    chunk = 0
    if checkpoint_path and os.path.exists(checkpoint_path):
        snap = load(checkpoint_path)
        restore(handle, snap)
        chunk = int(snap.meta.get("chunks_done", 0))
        resumed = True

    errors: List[str] = []
    corrupt = False
    unexpected = ""
    try:
        while chunk < max_chunks and not all(f.done for f in futs):
            sim.run(CHUNK)
            chunk += 1
            if (
                checkpoint_path
                and checkpoint_every_chunks
                and chunk % checkpoint_every_chunks == 0
            ):
                snap = capture(handle)
                snap.meta["chunks_done"] = chunk
                save(snap, checkpoint_path)
                checkpoints += 1
                if kill_after_checkpoints is not None and checkpoints == kill_after_checkpoints:
                    os.kill(os.getpid(), signal.SIGKILL)
                if stop_after_checkpoints is not None and checkpoints == stop_after_checkpoints:
                    break
        if stop_after_checkpoints is None or checkpoints < stop_after_checkpoints:
            for c, fut in enumerate(futs):
                if not fut.done:
                    errors.append(f"core{c}: Unfinished")
                    continue
                try:
                    fut.try_get()
                except (FaultError, DeadlockError) as exc:
                    errors.append(f"core{c}: {type(exc).__name__}")
                    continue
                handle.copy_from_fpga(dsts[c])
                if dsts[c].read() != pattern:
                    corrupt = True
    except (FaultError, DeadlockError) as exc:
        errors.append(type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 — untyped escape = violation
        unexpected = f"{type(exc).__name__}: {exc}"
    outcome, error = _classify(handle, errors, corrupt, unexpected)
    faults = handle.faults
    server = handle.server
    return {
        "outcome": outcome,
        "error": error,
        "cycles": sim.cycle,
        "chunks": chunk,
        "n_faults": len(faults.events) if faults is not None else 0,
        "fingerprint": faults.fingerprint() if faults is not None else "",
        "stable_metrics": build.design.metrics(stable_only=True),
        "resumed": resumed,
        "checkpoints": checkpoints,
        "timeouts": server.timeouts,
        "retries": server.retries,
        "quarantines": server.quarantines,
        "rerouted": server.rerouted,
        "late_responses": server.late_responses,
    }


def _victim_main(seed: int, mode: str, path: str, every: int, kill_after: int) -> None:
    """Forked victim body: run with checkpointing and SIGKILL ourselves."""
    run_checkpointed_memcpy(
        seed, mode,
        checkpoint_path=path,
        checkpoint_every_chunks=every,
        kill_after_checkpoints=kill_after,
    )


def _comparable(result: Dict[str, Any]) -> Dict[str, Any]:
    keys = ("outcome", "cycles", "chunks", "n_faults", "fingerprint", "stable_metrics")
    return {k: result[k] for k in keys}


def _fork_context():
    """The multiprocessing context for the victim (``fork`` where available:
    it needs no re-import of this module), or None when this interpreter
    cannot make processes and queues at all (sandboxed ``/dev/shm`` etc.)."""
    import multiprocessing

    try:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX platforms
            ctx = multiprocessing.get_context()
        q = ctx.Queue()
        q.cancel_join_thread()
        q.close()
        return ctx
    except Exception:  # pragma: no cover — sandboxed interpreters
        return None


def kill_and_resume_differential(
    seed: int,
    mode: str,
    workdir: str,
    *,
    checkpoint_every_chunks: int = 2,
) -> Dict[str, Any]:
    """Kill a run mid-flight at a seeded point, resume it, and compare with
    an uninterrupted reference of the same seed.

    The whole process is killed (a forked victim SIGKILLs itself right after
    a checkpoint write) and the run resumes from the checkpoint file.  Returns
    the resumed result plus ``{"match", "reference", "killed"}``; a mismatch
    means the determinism contract broke (outcome ``corrupt``).
    """
    rng = random.Random(0xC4EC ^ (seed * 2654435761 & 0xFFFFFFFF))
    reference = run_checkpointed_memcpy(seed, mode)
    ref_chunks = max(1, reference["chunks"])
    path = os.path.join(workdir, f"memcpy-{mode}-{seed}.ckpt")
    if os.path.exists(path):
        os.unlink(path)
    # Seeded kill point: after 1..N checkpoint writes, where N keeps the
    # kill strictly before the reference's completion chunk.
    max_kill = max(1, (ref_chunks - 1) // checkpoint_every_chunks)
    kill_after = 1 + rng.randrange(max_kill)
    killed = False
    ctx = _fork_context()
    if ctx is not None:
        proc = ctx.Process(
            target=_victim_main,
            args=(seed, mode, path, checkpoint_every_chunks, kill_after),
            daemon=True,
        )
        proc.start()
        proc.join(timeout=600.0)
        if proc.is_alive():  # pragma: no cover — runaway victim
            proc.terminate()
            proc.join(timeout=10.0)
        killed = proc.exitcode == -signal.SIGKILL
    else:
        # No fork available: abandon the run in-process after the same
        # number of checkpoints — the checkpoint file state is identical
        # to what a SIGKILL would have left behind.
        run_checkpointed_memcpy(
            seed, mode,
            checkpoint_path=path,
            checkpoint_every_chunks=checkpoint_every_chunks,
            stop_after_checkpoints=kill_after,
        )
    # If the seeded workload finished before its first checkpoint (or the
    # victim died pre-checkpoint) there is no file: resume degenerates to
    # a fresh run, which must still match the reference.
    resumed = run_checkpointed_memcpy(
        seed, mode,
        checkpoint_path=path,
        checkpoint_every_chunks=checkpoint_every_chunks,
    )

    match = _comparable(resumed) == _comparable(reference)
    result = dict(resumed)
    result["match"] = match
    result["killed"] = killed
    result["reference"] = _comparable(reference)
    if not match:
        result["outcome"] = "corrupt"
        result["error"] = (
            "resumed run diverged from uninterrupted reference: "
            + ", ".join(
                k for k in ("outcome", "cycles", "chunks", "n_faults", "fingerprint", "stable_metrics")
                if resumed[k] != reference[k]
            )
        )
    return result


# ----------------------------------------------------------------- farm entry
def checkpointed_memcpy_job(seed: int, mode: str) -> Dict[str, Any]:
    """Farm-friendly resumable job: checkpoint plumbing comes from the farm.

    When the farm exported a checkpoint path (the job was declared with
    ``Job(checkpoint_every=...)``), the run checkpoints there and resumes
    when a re-run follows a host crash; ``note_job_resumed`` feeds the
    ``resumed_from_checkpoint`` provenance the farm surfaces on the result.
    """
    from repro.snapshot.store import job_checkpoint, note_job_resumed

    path, every = job_checkpoint()
    result = run_checkpointed_memcpy(
        seed, mode,
        checkpoint_path=path,
        checkpoint_every_chunks=every or (2 if path else 0),
    )
    if result["resumed"]:
        note_job_resumed()
    return result
