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
from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.faults.chaos import (
    CHAOS_WATCHDOG,
    check_copies,
    default_plan,
    memcpy_scenario,
    run_scene,
)
from repro.snapshot.engine import capture, restore
from repro.snapshot.store import load, save

#: Cycles per driver chunk.  Checkpoints, kills, and completion checks all
#: happen at chunk boundaries, so the chunk size is part of the scenario's
#: deterministic identity.
CHUNK = 500

#: Driver bound: a hang-scheduled run terminates (classified ``error``)
#: after this many chunks instead of spinning forever.
MAX_CHUNKS = 250


def _build_memcpy(seed: int, mode: str):
    """The checkpoint preset of the chaos memcpy: 8 KiB on each of two
    cores under the seed's plan and the chaos watchdog.

    This function *is* the deterministic rebuild+replay the snapshot
    restore contract requires: calling it twice with the same arguments
    produces identical skeletons and identical command uids.
    """
    return memcpy_scenario(
        mode, seed, size=8192, n_cores=2, faults=default_plan(seed), watchdog=CHAOS_WATCHDOG
    )


def run_checkpointed_memcpy(
    seed: int,
    mode: str,
    *,
    checkpoint_path: Optional[str] = None,
    chunks_per_checkpoint: int = 0,
    kill_after_checkpoints: Optional[int] = None,
    stop_after_checkpoints: Optional[int] = None,
) -> Dict[str, Any]:
    """One resumable chaos-memcpy run, driven in fixed :data:`CHUNK`s.

    * ``checkpoint_path``/``chunks_per_checkpoint`` — write a snapshot
      file every N chunks; if the file already exists the run *resumes from
      it* instead of starting over.
    * ``kill_after_checkpoints`` — SIGKILL our own process right after the
      Nth checkpoint write (the victim half of the differential).
    * ``stop_after_checkpoints`` — abandon the run (return early) after the
      Nth checkpoint; the in-process fallback when fork is unavailable.

    The result is the run's :class:`~repro.faults.chaos.ChaosOutcome` as a
    dict plus ``chunks``, ``stable_metrics``, ``resumed`` and
    ``checkpoints``.
    """
    scene = _build_memcpy(seed, mode)
    build, handle, futs = scene[:3]
    sim = build.design.sim
    run = {"chunks": 0, "resumed": False, "checkpoints": 0}
    if checkpoint_path and os.path.exists(checkpoint_path):
        snap = load(checkpoint_path)
        restore(handle, snap)
        run.update(chunks=int(snap.meta.get("chunks_done", 0)), resumed=True)

    def drive(scene, v) -> None:
        while run["chunks"] < MAX_CHUNKS and not all(f.done for f in futs):
            sim.run(CHUNK)
            run["chunks"] += 1
            if (
                checkpoint_path
                and chunks_per_checkpoint
                and run["chunks"] % chunks_per_checkpoint == 0
            ):
                snap = capture(handle)
                snap.meta["chunks_done"] = run["chunks"]
                save(snap, checkpoint_path)
                run["checkpoints"] += 1
                if run["checkpoints"] == kill_after_checkpoints:
                    os.kill(os.getpid(), signal.SIGKILL)
                if run["checkpoints"] == stop_after_checkpoints:
                    return
        check_copies(scene, v)

    outcome = run_scene("checkpoint", mode, seed, scene, drive)
    return {**asdict(outcome), **run, "stable_metrics": build.metrics(stable_only=True)}


#: Chunks between two checkpoint writes in the kill-and-resume differential.
_CHUNKS_PER_CHECKPOINT = 2


def _victim_main(seed: int, mode: str, path: str, every: int, kill_after: int) -> None:
    """Forked victim body: run with checkpointing and SIGKILL ourselves."""
    run_checkpointed_memcpy(
        seed, mode,
        checkpoint_path=path,
        chunks_per_checkpoint=every,
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


def kill_and_resume_differential(seed: int, mode: str, workdir: str) -> Dict[str, Any]:
    """Kill a run mid-flight at a seeded point, resume it, and compare with
    an uninterrupted reference of the same seed.

    The whole process is killed (a forked victim, checkpointing every
    ``_CHUNKS_PER_CHECKPOINT`` chunks, SIGKILLs itself right after a
    checkpoint write) and the run resumes from the checkpoint file.  Returns
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
    max_kill = max(1, (ref_chunks - 1) // _CHUNKS_PER_CHECKPOINT)
    kill_after = 1 + rng.randrange(max_kill)
    killed = False
    ctx = _fork_context()
    if ctx is not None:
        proc = ctx.Process(
            target=_victim_main,
            args=(seed, mode, path, _CHUNKS_PER_CHECKPOINT, kill_after),
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
            chunks_per_checkpoint=_CHUNKS_PER_CHECKPOINT,
            stop_after_checkpoints=kill_after,
        )
    # If the seeded workload finished before its first checkpoint (or the
    # victim died pre-checkpoint) there is no file: resume degenerates to
    # a fresh run, which must still match the reference.
    resumed = run_checkpointed_memcpy(
        seed, mode,
        checkpoint_path=path,
        chunks_per_checkpoint=_CHUNKS_PER_CHECKPOINT,
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
