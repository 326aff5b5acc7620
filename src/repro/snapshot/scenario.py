"""Kill-and-resume differential: the snapshot determinism contract, end to end.

The scenario is the chaos harness's memcpy workload (seeded
:class:`~repro.faults.plan.FaultPlan` + chaos watchdog) driven in *fixed
cycle chunks* so checkpoints land at deterministic cycle boundaries:

* single-process modes checkpoint to disk every N chunks
  (:func:`repro.snapshot.save`), a forked victim process SIGKILLs itself at
  a seeded point, and the parent resumes from the surviving checkpoint file
  by rebuilding the design, replaying the host-side setup, and restoring;
* ``dist:fork`` arms ``DistConfig(checkpoint_every_slices=...)`` barrier
  checkpoints and SIGKILLs a worker process mid-run — the engine's failover
  rolls back and respawns, invisible to the driver.

Either way the differential asserts the resumed/recovered run is
bit-identical — outcome, final cycle, fault fingerprint, stable metrics,
output data — to one uninterrupted reference run of the same seed.
"""

from __future__ import annotations

import os
import random
import signal
from typing import Any, Dict, List, Optional

from repro.faults.chaos import (
    CHAOS_WATCHDOG,
    DIST_MODES,
    MODES,
    _classify,
    _mode_build_args,
    default_plan,
)
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


def _build_memcpy(seed: int, mode: str, dist_checkpoint_every: int = 0):
    """Elaborate the chaos memcpy design and replay the host-side setup.

    This function *is* the deterministic rebuild+replay the snapshot
    restore contract requires: calling it twice with the same arguments
    produces identical skeletons and identical command uids.
    """
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform, multi_die_platform
    from repro.runtime import FpgaHandle

    if mode in DIST_MODES:
        from repro.dist import DistConfig

        _, _, engine = mode.partition(":")
        build_args: Dict[str, Any] = {
            "distributed": DistConfig(
                n_workers=2,
                engine=engine or "auto",
                checkpoint_every_slices=dist_checkpoint_every,
                barrier_timeout_s=20.0,
            )
        }
        platform = multi_die_platform(2)
    else:
        build_args = _mode_build_args(mode)
        platform = AWSF1Platform()
    build = BeethovenBuild(
        memcpy_config(n_cores=_N_CORES),
        platform,
        faults=default_plan(seed),
        watchdog=CHAOS_WATCHDOG,
        **build_args,
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
    kill_worker_after_chunks: Optional[int] = None,
    max_chunks: int = MAX_CHUNKS,
) -> Dict[str, Any]:
    """One resumable chaos-memcpy run, driven in fixed :data:`CHUNK`s.

    * ``checkpoint_path``/``checkpoint_every_chunks`` — single-process
      modes: write a snapshot file every N chunks; if the file already
      exists the run *resumes from it* instead of starting over.
    * ``kill_after_checkpoints`` — SIGKILL our own process right after the
      Nth checkpoint write (the victim half of the differential).
    * ``stop_after_checkpoints`` — abandon the run (return early) after the
      Nth checkpoint; the in-process fallback when fork is unavailable.
    * ``kill_worker_after_chunks`` — ``dist:fork`` only: SIGKILL worker
      process 0 at that chunk boundary and let engine failover recover.
    """
    dist = mode in DIST_MODES
    if dist and kill_worker_after_chunks is not None and mode != "dist:fork":
        raise ValueError(
            f"worker-kill checkpoint chaos needs mode 'dist:fork' (got "
            f"{mode!r}: the serial engine has no worker processes to kill)"
        )
    # ~one barrier checkpoint per driver chunk (slice width is 8 on the
    # two-die platform, so 64 slices ~= one 500-cycle chunk).
    dist_every = 64 if dist and (checkpoint_every_chunks or kill_worker_after_chunks) else 0
    build, handle, futs, dsts, pattern = _build_memcpy(
        seed, mode, dist_checkpoint_every=dist_every
    )
    sim = build.design.sim
    resumed = False
    checkpoints = 0
    chunk = 0
    if not dist and checkpoint_path and os.path.exists(checkpoint_path):
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
            if dist:
                if kill_worker_after_chunks is not None and chunk == kill_worker_after_chunks:
                    victim = sim._children[0]
                    os.kill(victim.process.pid, signal.SIGKILL)
            elif (
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
    if faults is None:
        fingerprint = ""
    elif dist:
        fingerprint = faults.canonical_fingerprint()
    else:
        fingerprint = faults.fingerprint()
    harness = build.design.metrics(prefix="dist/") if dist else {}
    server = handle.server
    result = {
        "outcome": outcome,
        "error": error,
        "cycles": sim.cycle,
        "chunks": chunk,
        "n_faults": len(faults.events) if faults is not None else 0,
        "fingerprint": fingerprint,
        "stable_metrics": build.design.metrics(stable_only=True),
        "resumed": resumed or bool(harness.get("dist/restarts", 0)),
        "checkpoints": checkpoints or int(harness.get("dist/checkpoints", 0)),
        "restarts": int(harness.get("dist/restarts", 0)),
        "timeouts": int(server.timeouts),
        "retries": int(server.retries),
        "quarantines": int(server.quarantines),
        "rerouted": int(server.rerouted),
        "late_responses": int(server.late_responses),
    }
    getattr(sim, "shutdown", lambda: None)()
    return result


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


def kill_and_resume_differential(
    seed: int,
    mode: str,
    workdir: str,
    *,
    checkpoint_every_chunks: int = 2,
) -> Dict[str, Any]:
    """Kill a run mid-flight at a seeded point, resume it, and compare with
    an uninterrupted reference of the same seed.

    Single-process modes (:data:`~repro.faults.chaos.MODES`) kill the whole
    process (a forked victim SIGKILLs itself right after a checkpoint write)
    and resume from the checkpoint file; ``dist:fork`` SIGKILLs one worker
    process and lets barrier-checkpoint failover recover in place.  Returns
    the resumed result plus ``{"match", "reference", "killed"}``; a mismatch
    means the determinism contract broke (outcome ``corrupt``).
    """
    rng = random.Random(0xC4EC ^ (seed * 2654435761 & 0xFFFFFFFF))
    reference = run_checkpointed_memcpy(seed, mode)
    ref_chunks = max(1, reference["chunks"])

    if mode == "dist:fork":
        # Kill a worker at a seeded chunk boundary strictly inside the run
        # (>= 3 so at least one barrier checkpoint exists to roll back to).
        kill_chunk = 3 + rng.randrange(max(1, ref_chunks - 3)) if ref_chunks > 3 else 1
        resumed = run_checkpointed_memcpy(
            seed, mode, kill_worker_after_chunks=kill_chunk
        )
        killed = True
    elif mode in DIST_MODES:
        raise ValueError(
            f"kill-and-resume needs mode 'dist:fork' or one of {MODES} "
            f"(got {mode!r}: the serial engine has no processes to kill)"
        )
    else:
        from repro.farm.pool import multiprocessing_available, multiprocessing_context

        path = os.path.join(workdir, f"memcpy-{mode}-{seed}.ckpt")
        if os.path.exists(path):
            os.unlink(path)
        # Seeded kill point: after 1..N checkpoint writes, where N keeps the
        # kill strictly before the reference's completion chunk.
        max_kill = max(1, (ref_chunks - 1) // checkpoint_every_chunks)
        kill_after = 1 + rng.randrange(max_kill)
        killed = False
        if multiprocessing_available():
            ctx = multiprocessing_context()
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
    """Farm-friendly resumable job: checkpoint plumbing comes from the pool.

    When the dispatching pool exported a checkpoint path (the job was
    declared with ``Job(checkpoint_every=...)``), the run checkpoints there
    and transparently resumes after a crash or hung-job kill;
    ``note_job_resumed`` feeds the ``resumed_from_checkpoint`` provenance
    the pool surfaces on the outcome.
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
