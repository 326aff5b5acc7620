#!/usr/bin/env python
"""Kill-and-resume differential CLI: the snapshot determinism gate.

For every scheduling backend (and the ``dist:fork`` sharded engine) this
runs the :mod:`repro.snapshot.scenario` differential: a checkpointed chaos
memcpy run is SIGKILLed at a seeded point — the whole process for
single-process modes, one worker process for ``dist:fork`` — then resumed
from the surviving checkpoint, and the resumed run must be bit-identical
(outcome, final cycle, fault fingerprint, stable metrics) to an
uninterrupted reference of the same seed.  Writes into ``--out``:

* ``checkpoint-report.txt``   — per-mode/seed differential table
* ``outcomes.json``           — one record per differential
* ``BENCH_checkpoint.json``   — capture / save / load / restore seconds
                                (checkpoint_write_seconds = capture + save),
                                snapshot_bytes, objects_frozen (what one
                                capture walks) and dist restarts, for the
                                bench-history regression gate
* ``sample.ckpt``             — one snapshot file artefact

and exits 1 on any divergence.  CI runs this; locally it is the snapshot
playground.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.faults.chaos import MODES  # noqa: E402
from repro.sim import DEFAULT_SCHEDULING  # noqa: E402
from repro.snapshot.engine import capture, restore  # noqa: E402
from repro.snapshot.scenario import (  # noqa: E402
    CHUNK,
    _build_memcpy,
    kill_and_resume_differential,
)
from repro.snapshot.store import load, save  # noqa: E402

ALL_MODES = MODES + ("dist:fork",)


def _timing_pass(out: Path, reps: int) -> dict:
    """Per-call wall time of each snapshot step on a mid-flight run."""
    path = str(out / "sample.ckpt")
    build, handle, futs, _dsts, _pattern = _build_memcpy(0, DEFAULT_SCHEDULING)
    sim = build.design.sim
    for _ in range(2):
        sim.run(CHUNK)
    # Restore timing excludes the deterministic rebuild+replay (that cost is
    # the build's, not the snapshot layer's): one skeleton, ``reps`` restores.
    build2, handle2, _futs2, _dsts2, _pattern2 = _build_memcpy(0, DEFAULT_SCHEDULING)
    seconds = dict.fromkeys(("capture", "save", "load", "restore"), 0.0)

    def timed(step, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        seconds[step] += time.perf_counter() - t0
        return result

    for _ in range(reps):
        snap = timed("capture", capture, handle)
        timed("save", save, snap, path)
        timed("restore", restore, handle2, timed("load", load, path))
    for b in (build, build2):
        getattr(b.design.sim, "shutdown", lambda: None)()
    timing = {f"{step}_seconds": total / reps for step, total in seconds.items()}
    # The sum bench-history has always tracked, kept so its rows stay comparable.
    timing["checkpoint_write_seconds"] = timing["capture_seconds"] + timing["save_seconds"]
    timing["snapshot_bytes"] = os.path.getsize(path)
    timing["objects_frozen"] = snap.meta["objects"]
    return timing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3, help="seeds per mode")
    parser.add_argument(
        "--modes", nargs="+", default=list(ALL_MODES), choices=ALL_MODES
    )
    parser.add_argument("--reps", type=int, default=5, help="timing repetitions")
    parser.add_argument("--out", default="checkpoint-artifacts", help="output directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workdir = out / "checkpoints"
    workdir.mkdir(exist_ok=True)

    records = []
    lines = [f"kill-and-resume differential: {len(args.modes)} mode(s) x {args.seeds} seed(s)"]
    for mode in args.modes:
        for seed in range(args.seeds):
            r = kill_and_resume_differential(seed, mode, str(workdir))
            records.append({"mode": mode, "seed": seed, **{
                k: r[k] for k in (
                    "match", "killed", "resumed", "outcome", "error",
                    "cycles", "fingerprint", "checkpoints", "restarts",
                )
            }})
            lines.append(
                f"  {mode:<13} seed={seed} match={r['match']} killed={r['killed']} "
                f"resumed={r['resumed']} outcome={r['outcome']} cycles={r['cycles']} "
                f"restarts={r['restarts']}"
            )

    mismatches = [r for r in records if not r["match"]]
    kills = sum(1 for r in records if r["killed"])
    resumes = sum(1 for r in records if r["resumed"])
    dist_restarts = sum(r["restarts"] for r in records)
    lines.append(
        f"  {len(records)} differentials: {kills} killed, {resumes} resumed, "
        f"{len(mismatches)} diverged, {dist_restarts} dist worker restart(s)"
    )

    bench = {
        "differentials": len(records),
        "kills": kills,
        "resumes": resumes,
        "restarts": dist_restarts,
        **_timing_pass(out, max(args.reps, 1)),
    }
    (out / "BENCH_checkpoint.json").write_text(
        json.dumps(bench, indent=2, sort_keys=True) + "\n"
    )
    (out / "outcomes.json").write_text(json.dumps(records, indent=2) + "\n")
    report = "\n".join(lines)
    print(report)
    print(
        "snapshot: "
        + ", ".join(
            f"{step} {bench[step + '_seconds'] * 1e3:.1f}ms"
            for step in ("capture", "save", "load", "restore")
        )
        + f", {bench['snapshot_bytes']} bytes, {bench['objects_frozen']} objects frozen"
    )
    (out / "checkpoint-report.txt").write_text(report + "\n")

    if mismatches:
        for r in mismatches[:10]:
            print(
                f"FAIL: {r['mode']} seed={r['seed']} resumed run diverged: {r['error']}",
                file=sys.stderr,
            )
        return 1
    if kills == 0:
        print("FAIL: no run was actually killed — the differential proved nothing", file=sys.stderr)
        return 1
    print(f"wrote {out}/: checkpoint-report.txt, outcomes.json, BENCH_checkpoint.json, sample.ckpt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
