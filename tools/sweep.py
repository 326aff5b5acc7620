#!/usr/bin/env python3
"""Farm-powered sweep CLI (see ``repro.farm``).

Three subcommands:

``fig6``
    The paper's Figure 6 sweep through the farm: one job per Table I
    workload, memoised in the result cache.

        python tools/sweep.py fig6 --max-cores 48

``cores``
    Core-count sweep of one workload with full per-point provenance
    (build wall-time, cache hit/miss).

        python tools/sweep.py cores --bench gemm --counts 1:12
        python tools/sweep.py cores --bench nw --counts 1:48 --strategy bisect

``smoke``
    The CI gate: runs a reference pass with no cache, then the same sweep
    twice through a farm with a fresh cache (cold, then warm), and fails
    unless all three passes are bit-identical and the warm pass is
    >= --min-hit-rate cache-served.  Writes ``smoke-stats.json``,
    ``farm-metrics.json`` and ``farm-trace.json`` artefacts into --out.

        python tools/sweep.py smoke --out artifacts

Every subcommand's JSON report (``farm-stats.json``; ``smoke-stats.json`` for
``smoke``) carries the wall-clock phase ledger: ``end_to_end_seconds`` plus
``elaborate_seconds`` (building designs: ``DesignPoint.build_seconds`` and
the Figure 6 feasibility searches), ``simulate_seconds`` (inside
``simulate_measured``) and ``cache_seconds`` (a pass served wholly by the
result cache).  Only freshly computed jobs count towards elaborate/simulate;
cache lookups and rendering are the unattributed remainder.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.dse import render_sweep_report, sweep_cores  # noqa: E402
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


def _make_farm(args) -> Farm:
    return Farm(cache=not args.no_cache, cache_dir=_cache_dir(args))


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
        f"\n{stats['jobs_submitted']} jobs in {wall:.1f}s; "
        f"cache hit rate {stats['cache_hit_rate']:.0%}"
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

    All jobs are pure functions, so results compare ``==`` across uncached,
    cold and warm executions.
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
    # A fresh cache per smoke run unless one is supplied, so the cold pass
    # is not served by a previous invocation.  --resume trades that
    # isolation for restartability: the cache lives in --out, so a killed
    # smoke run rerun with the same arguments is served its finished jobs.
    cache_dir = _cache_dir(args)
    if cache_dir is None:
        import tempfile

        cache_dir = tempfile.mkdtemp(prefix="repro-farm-smoke-")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    report = {"max_cores": args.max_cores}

    # Pass 0: reference with no cache — ground truth.
    t0 = time.perf_counter()
    reference = Farm(cache=False).run(_smoke_jobs(args.max_cores))
    report["reference_seconds"] = time.perf_counter() - t0
    if not all(r.ok for r in reference):
        print("reference pass failed:", [r.error for r in reference if not r.ok])
        return 1
    ref_values = _job_values(reference)

    # Passes 1 and 2: the same sweep on a cold cache, then on the warm one.
    values = {}
    for name in ("cold", "warm"):
        farm = Farm(cache_dir=cache_dir)
        t0 = time.perf_counter()
        values[name] = _job_values(farm.run(_smoke_jobs(args.max_cores)))
        report[f"{name}_seconds"] = time.perf_counter() - t0
        report[name] = farm.stats()

    hit_rate = report["warm"]["cache_hit_rate"]
    identical = values["cold"] == ref_values and values["warm"] == ref_values
    # Phase ledger: the elaborate/simulate split comes from the reference
    # pass, whose job seconds add up to its wall-clock.
    report.update(
        _phase_ledger(reference, report["reference_seconds"]),
        cache_seconds=report["warm_seconds"],
        end_to_end_seconds=sum(report[f"{n}_seconds"] for n in ("reference", "cold", "warm")),
    )
    report["warm_hit_rate"] = hit_rate
    report["bit_identical"] = identical

    with open(os.path.join(out_dir, "smoke-stats.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True, default=str)
    _emit_artifacts(farm, out_dir)

    print(
        f"smoke sweep: reference {report['reference_seconds']:.1f}s, "
        f"cold {report['cold_seconds']:.1f}s, warm {report['warm_seconds']:.1f}s; "
        f"warm hit rate {hit_rate:.0%}; bit-identical: {identical}"
    )

    ok = True
    if not identical:
        print("FAIL: cached results diverge from the uncached reference")
        ok = False
    if hit_rate < args.min_hit_rate:
        print(f"FAIL: warm-pass cache hit rate {hit_rate:.0%} < {args.min_hit_rate:.0%}")
        ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache=True):
        p.add_argument("--out", default="", help="artefact directory (stats/metrics/trace)")
        p.add_argument("--resume", action="store_true",
                       help="keep the result cache in --out: an interrupted run "
                       "rerun with the same arguments skips completed jobs")
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

    p = sub.add_parser("smoke", help="CI smoke sweep: bit-identity + cache invariants")
    p.add_argument("--max-cores", type=int, default=48)
    p.add_argument("--min-hit-rate", type=float, default=0.9,
                   help="fail if the warm pass's cache hit rate is below this")
    common(p)
    p.set_defaults(fn=cmd_smoke)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
