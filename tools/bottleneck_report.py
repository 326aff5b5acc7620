#!/usr/bin/env python
"""Emit the cycle-attribution bottleneck report for benchmark points.

Runs two instrumented points under all four scheduling modes and writes the
:mod:`repro.obs.attribution` rollup for each:

* a Figure-6 MachSuite point (``--bench``, default ``md-knn``): the paper's
  delay-calibrated core at its measured kernel latency, several cores and
  rounds, driven through the full host runtime;
* a DRAM-heavy memcpy point (``--memcpy-bytes``, 0 disables), where the
  report attributes most of the critical path to DRAM service.

For every point the tool enforces the attribution contract and exits
non-zero on violation:

* **exact decomposition** — each command's segments sum to its measured
  end-to-end latency exactly (the acceptance bar is 1%; the extractor is
  built to be exact);
* **scheduling invariance** — segment totals and the contention counters are
  identical under naive, fast_forward, selective and compiled scheduling.

Artifacts: ``attribution_<point>.json`` per point plus a combined
``bottleneck_report.json`` under ``--out``; the text reports go to stdout.
CI uploads the directory and feeds the summary to the bench-history tracker.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.baselines.delay_core import delay_config
from repro.core.build import BeethovenBuild, BuildMode
from repro.kernels.machsuite.fig6 import beethoven_kernel_cycles
from repro.kernels.memcpy import memcpy_config
from repro.obs import Observability, extract_command_paths, render_attribution_report
from repro.platforms import AWSF1Platform
from repro.runtime import FpgaHandle
from repro.sim import class_tick_table, render_class_tick_table

MODES = ("naive", "fast_forward", "selective", "compiled")


def _build(config, mode, profile=False):
    return BeethovenBuild(
        config,
        AWSF1Platform(),
        BuildMode.Simulation,
        observability=Observability(enabled=True, profile=profile),
        scheduling=mode,
    )


def _drive_fig6(build, n_cores, rounds):
    handle = FpgaHandle(build.design)
    for r in range(rounds):
        futs = [
            handle.call("Delay", "run", core, job=r) for core in range(n_cores)
        ]
        for fut in futs:
            fut.get(max_cycles=10_000_000)
    return handle


def _drive_memcpy(build, n_bytes, rounds):
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(n_bytes), handle.malloc(n_bytes)
    src.write(bytes((i * 37 + 11) % 256 for i in range(n_bytes)))
    handle.copy_to_fpga(src)
    for _ in range(rounds):
        handle.call(
            "Memcpy", "memcpy", 0,
            src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=n_bytes,
        ).get(max_cycles=10_000_000)
    return handle


def run_point(name, config, drive, max_sum_error=0.01, profile=False):
    """Run one point under all modes; returns (report, problems).

    ``profile`` adds one profiled ``compiled`` pass whose class table
    (with µs per tick per class) replaces the unprofiled one."""
    problems = []
    reports = {}
    totals_by_mode = {}
    contention_by_mode = {}
    class_ticks = {}
    for mode in MODES:
        build = _build(config, mode)
        drive(build)
        design = build.design
        paths = extract_command_paths(design.tracer, [design.monitor])
        if not paths:
            problems.append(f"{name}/{mode}: no closed command spans")
            continue
        for p in paths:
            total = sum(p.segments.values())
            err = abs(total - p.latency) / p.latency if p.latency else 0.0
            if err > max_sum_error:
                problems.append(
                    f"{name}/{mode}: span {p.span_id} segments sum to {total}, "
                    f"latency {p.latency} ({err:.2%} > {max_sum_error:.0%})"
                )
        report = build.attribution_report()
        reports[mode] = report
        if mode == "compiled":
            # Tick accounting is exact per component only under the
            # event-driven schedules; the table describes the production one.
            class_ticks = class_tick_table(design.sim)
        totals_by_mode[mode] = {
            seg: s["cycles"] for seg, s in report["segments"].items()
        }
        contention = report["contention"]
        contention_by_mode[mode] = {
            "dram": {
                k: v for k, v in contention["dram"].items() if isinstance(v, int)
            },
            "noc": contention["noc"],
            "tlp": contention["tlp"],
        }
    if profile:
        build = _build(config, "compiled", profile=True)
        drive(build)
        class_ticks = class_tick_table(build.design.sim)
    ref_mode = MODES[0]
    for mode in MODES[1:]:
        if totals_by_mode.get(mode) != totals_by_mode.get(ref_mode):
            problems.append(
                f"{name}: segment totals differ {ref_mode} vs {mode}: "
                f"{totals_by_mode.get(ref_mode)} != {totals_by_mode.get(mode)}"
            )
        if contention_by_mode.get(mode) != contention_by_mode.get(ref_mode):
            problems.append(
                f"{name}: contention counters differ {ref_mode} vs {mode}"
            )
    report = reports.get(ref_mode, {})
    report["class_ticks"] = class_ticks
    report["point"] = name
    report["modes_checked"] = list(reports)
    return report, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="attribution-artifacts")
    parser.add_argument(
        "--bench", default="md-knn",
        choices=("gemm", "nw", "stencil2d", "stencil3d", "md-knn"),
        help="fig6 MachSuite point to attribute",
    )
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument(
        "--memcpy-bytes", type=int, default=16384,
        help="size of the DRAM-heavy memcpy point (0 disables)",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    kernel_cycles = beethoven_kernel_cycles(args.bench)
    points = [
        (
            f"fig6_{args.bench}",
            delay_config(args.cores, kernel_cycles),
            lambda b: _drive_fig6(b, args.cores, args.rounds),
        )
    ]
    if args.memcpy_bytes:
        points.append(
            (
                "memcpy",
                memcpy_config(n_cores=1),
                lambda b: _drive_memcpy(b, args.memcpy_bytes, args.rounds),
            )
        )

    all_problems = []
    combined = {}
    for name, config, drive in points:
        report, problems = run_point(name, config, drive, profile=name == "memcpy")
        all_problems.extend(problems)
        combined[name] = report
        with open(out / f"attribution_{name}.json", "w") as f:
            json.dump(report, f, indent=2, sort_keys=True, default=float)
        print(f"== {name} (modes: {', '.join(report.get('modes_checked', []))}) ==")
        print(render_attribution_report(report))
        print("executed ticks by component class (compiled schedule):")
        print(render_class_tick_table(report["class_ticks"]))
        print()

    with open(out / "bottleneck_report.json", "w") as f:
        json.dump(combined, f, indent=2, sort_keys=True, default=float)

    if all_problems:
        print("FAIL: attribution contract violations:", file=sys.stderr)
        for p in all_problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"wrote {out}/: bottleneck_report.json + per-point attribution JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main())
