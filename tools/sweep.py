#!/usr/bin/env python3
"""Farm-powered sweep CLI (see ``repro.farm``).

Three subcommands:

``fig6``
    The paper's Figure 6 sweep through the farm: one job per Table I
    workload, sharded across workers, memoised in the result cache.

        python tools/sweep.py fig6 --max-cores 48 --workers 4

``cores``
    Core-count sweep of one workload with full per-point provenance
    (build wall-time, cache hit/miss, worker id).

        python tools/sweep.py cores --bench gemm --counts 1:12
        python tools/sweep.py cores --bench nw --counts 1:48 --strategy bisect

``smoke``
    The CI gate: runs a serial reference pass, then the same sweep twice
    through a parallel farm with a fresh cache, and checks three
    invariants — farm results are bit-identical to serial, the second
    parallel run is >= --min-hit-rate cache-served, and (when
    --min-speedup is set) the parallel pass beats serial by that factor.
    Writes ``smoke-stats.json``, ``farm-metrics.json`` and
    ``farm-trace.json`` artefacts into --out.

        python tools/sweep.py smoke --workers 4 --min-speedup 2.0 --out artifacts

Every subcommand's JSON report (``farm-stats.json``; ``smoke-stats.json`` for
``smoke``) carries the wall-clock phase ledger: ``end_to_end_seconds`` plus
``elaborate_seconds`` (building designs: ``DesignPoint.build_seconds`` and
the Figure 6 feasibility searches), ``simulate_seconds`` (inside
``simulate_measured``) and ``cache_seconds`` (a pass served wholly by the
result cache).  Only freshly computed jobs count towards elaborate/simulate;
farm queueing, IPC and rendering are the unattributed remainder.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.analysis import render_sweep_report, sweep_frame  # noqa: E402
from repro.dse import sweep_cores  # noqa: E402
from repro.farm import Farm, FarmJobError, Job  # noqa: E402
from repro.kernels.machsuite.fig6 import (  # noqa: E402
    CONFIG_FACTORIES,
    config_for,
    render_fig6,
)
from repro.kernels.machsuite.workloads import BEETHOVEN_CLOCK_MHZ  # noqa: E402
from repro.platforms import AWSF1Platform  # noqa: E402


def _platform() -> AWSF1Platform:
    return AWSF1Platform(clock_mhz=BEETHOVEN_CLOCK_MHZ)


def _make_farm(args, cache: bool = True) -> Farm:
    return Farm(
        n_workers=args.workers,
        cache=cache and not getattr(args, "no_cache", False),
        cache_dir=_cache_dir(args),
    )


def _cache_dir(args):
    """--resume pins the result cache inside --out so an interrupted sweep
    rerun with the same arguments is served its completed jobs and only
    recomputes the remainder."""
    explicit = getattr(args, "cache_dir", None)
    if explicit:
        return explicit
    if getattr(args, "resume", False):
        return os.path.join(args.out or ".", "resume-cache")
    return None


def _parse_counts(spec: str):
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def _emit_artifacts(farm: Farm, out_dir: str, ledger=None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "farm-stats.json"), "w") as f:
        json.dump({**farm.stats(), **(ledger or {})}, f, indent=2, sort_keys=True)
    farm.export_metrics(os.path.join(out_dir, "farm-metrics.json"))
    farm.export_chrome_trace(os.path.join(out_dir, "farm-trace.json"))


def _fig6_jobs(platform, max_cores: int, benches):
    return [
        Job(
            "repro.kernels.machsuite.fig6:fig6_row_timed",
            (bench, platform, max_cores),
            label=f"fig6/{bench}",
        )
        for bench in benches
    ]


def _job_values(results):
    """Comparable values of one pass: Figure 6 rows without their timings."""
    return [r.value[0] if isinstance(r.value, tuple) else r.value for r in results]


def _phase_ledger(results, end_to_end: float):
    """Phase split of one farm pass (see the module docstring)."""
    elaborate = simulate = 0.0
    for r in results:
        if r.cache_hit or not r.ok:
            continue
        if isinstance(r.value, tuple):  # fig6_row_timed: (row, phase seconds)
            elaborate += r.value[1]["elaborate_seconds"]
            simulate += r.value[1]["simulate_seconds"]
        else:  # a simulate_measured job
            simulate += r.wall_seconds
    return _ledger(end_to_end, elaborate, simulate, all(r.cache_hit for r in results))


def _ledger(end_to_end: float, elaborate: float, simulate: float, all_cached: bool):
    return {
        "end_to_end_seconds": end_to_end,
        "elaborate_seconds": elaborate,
        "simulate_seconds": simulate,
        "cache_seconds": end_to_end if all_cached else 0.0,
    }


# ---------------------------------------------------------------- commands
def cmd_fig6(args) -> int:
    farm = _make_farm(args)
    t0 = time.perf_counter()
    results = farm.run(_fig6_jobs(_platform(), args.max_cores, list(CONFIG_FACTORIES)))
    wall = time.perf_counter() - t0
    failures = [r for r in results if not r.ok]
    if failures:
        raise FarmJobError(failures)
    print(render_fig6(_job_values(results)))
    stats = farm.stats()
    print(
        f"\n{stats['jobs_submitted']} jobs on {stats['workers']} worker(s) "
        f"in {wall:.1f}s; cache hit rate {stats['cache_hit_rate']:.0%}"
    )
    if args.out:
        _emit_artifacts(farm, args.out, _phase_ledger(results, wall))
    return 0


def cmd_cores(args) -> int:
    if args.bench not in CONFIG_FACTORIES:
        print(f"unknown bench {args.bench!r}; choose from {sorted(CONFIG_FACTORIES)}")
        return 2
    farm = _make_farm(args)
    t0 = time.perf_counter()
    points = sweep_cores(
        partial(config_for, args.bench),
        _parse_counts(args.counts),
        _platform(),
        farm=farm,
        strategy=args.strategy,
    )
    wall = time.perf_counter() - t0
    print(render_sweep_report(points))
    if args.out:
        built = sum((p.build_seconds for p in points if not p.cache_hit), 0.0)
        ledger = _ledger(wall, built, 0.0, all(p.cache_hit for p in points))
        _emit_artifacts(farm, args.out, ledger)
    return 0


def _smoke_jobs(max_cores: int):
    """The smoke sweep: Figure 6 rows plus a runtime-contention grid.

    Jobs are ordered longest-first (the nw row dominates) so the pool packs
    them well; all are pure functions, so results compare ``==`` across
    serial, parallel, and cached executions.
    """
    platform = _platform()
    jobs = _fig6_jobs(platform, max_cores, ("nw", "stencil2d", "gemm", "stencil3d", "md-knn"))
    for latency in (16_000, 8_000, 4_000, 2_000):
        for n_cores in (16, 8, 4):
            jobs.append(
                Job(
                    "repro.kernels.machsuite.fig6:simulate_measured",
                    (n_cores, latency, platform),
                    {"rounds": 8},
                    label=f"contention/n{n_cores}/l{latency}",
                )
            )
    return jobs


def cmd_smoke(args) -> int:
    # A fresh cache per smoke run unless one is supplied: the cold-cache
    # speedup measurement must not be served by a previous invocation.
    # --resume deliberately trades that isolation for restartability: the
    # cache (and a stage log) live in --out, so a killed smoke run picks up
    # where it stopped — completed passes are skipped, the interrupted
    # pass is served its finished jobs.
    cache_dir = _cache_dir(args)
    if cache_dir is None:
        import tempfile

        cache_dir = tempfile.mkdtemp(prefix="repro-farm-smoke-")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stage_log = stage_state = None
    if args.resume:
        import pickle

        from repro.snapshot.store import StageLog

        stage_log = StageLog(
            os.path.join(out_dir, "smoke-stages.json"),
            # "ledger" versions the stage payloads (phase split added).
            {"workers": args.workers, "max_cores": args.max_cores, "ledger": 1},
        )
        state_path = os.path.join(out_dir, "smoke-resume.pkl")
        stage_state = {}
        if os.path.exists(state_path):
            try:
                with open(state_path, "rb") as fh:
                    stage_state = pickle.load(fh)
            except Exception:
                stage_state = {}

    def _stage_done(name):
        return stage_log is not None and stage_log.is_done(name) and name in stage_state

    def _stage_save(name, payload):
        if stage_log is None:
            return
        stage_state[name] = payload
        with open(state_path, "wb") as fh:
            pickle.dump(stage_state, fh)
        stage_log.mark_done(name)

    report = {"workers": args.workers, "max_cores": args.max_cores}

    # Pass 0: serial reference (no cache, no workers) — ground truth.
    if _stage_done("serial"):
        ref_values, report["serial_seconds"], phases = stage_state["serial"]
        print("resume: serial reference pass already complete")
    else:
        serial_farm = Farm.serial()
        t0 = time.perf_counter()
        reference = serial_farm.run(_smoke_jobs(args.max_cores))
        report["serial_seconds"] = time.perf_counter() - t0
        if not all(r.ok for r in reference):
            print("serial reference pass failed:", [r.error for r in reference if not r.ok])
            return 1
        ref_values = _job_values(reference)
        phases = _phase_ledger(reference, report["serial_seconds"])
        _stage_save("serial", (ref_values, report["serial_seconds"], phases))

    # Pass 1: parallel, cold cache.
    if _stage_done("run1"):
        run1_values, report["parallel_seconds"], report["run1"] = stage_state["run1"]
        print("resume: parallel pass already complete")
    else:
        farm1 = Farm(n_workers=args.workers, cache_dir=cache_dir)
        t0 = time.perf_counter()
        run1 = farm1.run(_smoke_jobs(args.max_cores))
        report["parallel_seconds"] = time.perf_counter() - t0
        report["run1"] = farm1.stats()
        run1_values = _job_values(run1)
        _stage_save("run1", (run1_values, report["parallel_seconds"], report["run1"]))

    # Pass 2: same sweep again — must be served from the cache.
    farm2 = Farm(n_workers=args.workers, cache_dir=cache_dir)
    t0 = time.perf_counter()
    run2 = farm2.run(_smoke_jobs(args.max_cores))
    cache_seconds = time.perf_counter() - t0
    report["run2"] = farm2.stats()

    speedup = report["serial_seconds"] / max(report["parallel_seconds"], 1e-9)
    hit_rate = report["run2"]["cache_hit_rate"]
    identical = run1_values == ref_values and _job_values(run2) == ref_values
    # Phase ledger: the elaborate/simulate split comes from the serial pass
    # (one process, so its job seconds add up to its wall-clock).
    report.update(
        phases,
        cache_seconds=cache_seconds,
        end_to_end_seconds=report["serial_seconds"] + report["parallel_seconds"] + cache_seconds,
    )
    report["speedup"] = speedup
    report["second_run_hit_rate"] = hit_rate
    report["bit_identical"] = identical

    with open(os.path.join(out_dir, "smoke-stats.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True, default=str)
    _emit_artifacts(farm2, out_dir)

    print(
        f"smoke sweep: serial {report['serial_seconds']:.1f}s, "
        f"parallel({args.workers}) {report['parallel_seconds']:.1f}s "
        f"({speedup:.2f}x), cached {cache_seconds:.1f}s; "
        f"second-run hit rate {hit_rate:.0%}; bit-identical: {identical}"
    )

    ok = True
    if not identical:
        print("FAIL: farm results diverge from the serial reference")
        ok = False
    if hit_rate < args.min_hit_rate:
        print(f"FAIL: second-run cache hit rate {hit_rate:.0%} < {args.min_hit_rate:.0%}")
        ok = False
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < {args.min_speedup:.2f}x")
        ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache=True):
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: REPRO_FARM_WORKERS or min(4, cpus))")
        p.add_argument("--out", default="", help="artefact directory (stats/metrics/trace)")
        p.add_argument("--resume", action="store_true",
                       help="keep resume state in --out: an interrupted run rerun "
                       "with the same arguments skips completed work (job cache; "
                       "for smoke, whole completed passes)")
        if cache:
            p.add_argument("--cache-dir", default=None,
                           help="result cache root (default: ~/.cache/repro-farm)")
            p.add_argument("--no-cache", action="store_true", help="disable the result cache")

    p = sub.add_parser("fig6", help="Figure 6 sweep through the farm")
    p.add_argument("--max-cores", type=int, default=48)
    common(p)
    p.set_defaults(fn=cmd_fig6)

    p = sub.add_parser("cores", help="core-count sweep of one workload")
    p.add_argument("--bench", required=True, choices=sorted(CONFIG_FACTORIES))
    p.add_argument("--counts", default="1:16", help="'1:16' range or '1,2,4,8' list")
    p.add_argument("--strategy", choices=("scan", "bisect"), default="scan")
    common(p)
    p.set_defaults(fn=cmd_cores)

    p = sub.add_parser("smoke", help="CI smoke sweep: parallel + cache invariants")
    p.add_argument("--max-cores", type=int, default=48)
    p.add_argument("--min-speedup", type=float, default=0.0,
                   help="fail if parallel speedup vs serial is below this (0 = don't check)")
    p.add_argument("--min-hit-rate", type=float, default=0.9,
                   help="fail if the second run's cache hit rate is below this")
    common(p)
    p.set_defaults(fn=cmd_smoke)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
