#!/usr/bin/env python
"""Run one instrumented memcpy and export every observability artefact.

Drives the full stack (host runtime -> MMIO -> command network -> core ->
AXI tree -> DRAM) with the observability layer on, then writes:

* ``trace.json``   — Chrome/Perfetto trace (load at https://ui.perfetto.dev)
* ``metrics.json`` — flat metric registry dump
* ``metrics.txt``  — human-readable metrics report
* ``profile.txt``  — per-component wall-clock self-time profile

and exits non-zero if the trace fails trace-event schema validation or the
command span is missing its AXI burst children.  CI runs this to keep the
exporters honest; it doubles as the smallest end-to-end usage example.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.build import BeethovenBuild
from repro.kernels.memcpy import memcpy_config
from repro.obs import Observability
from repro.obs.export import validate_chrome_trace
from repro.platforms import AWSF1Platform
from repro.runtime import FpgaHandle
from repro.sim import DEFAULT_SCHEDULING, SCHEDULING_MODES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="obs-artifacts", help="output directory")
    parser.add_argument("--bytes", type=int, default=16384, help="memcpy size")
    parser.add_argument(
        "--scheduling",
        default=DEFAULT_SCHEDULING,
        choices=SCHEDULING_MODES,
        help="simulation kernel schedule",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    build = BeethovenBuild(
        memcpy_config(n_cores=1),
        AWSF1Platform(),
        observability=Observability(profile=True),
        scheduling=args.scheduling,
    )
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(args.bytes), handle.malloc(args.bytes)
    pattern = bytes((i * 37 + 11) % 256 for i in range(args.bytes))
    src.write(pattern)
    handle.copy_to_fpga(src)
    handle.call(
        "Memcpy", "memcpy", 0,
        src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=args.bytes,
    ).get(max_cycles=2_000_000)
    handle.copy_from_fpga(dst)
    if dst.read() != pattern:
        print("FAIL: memcpy data mismatch", file=sys.stderr)
        return 1

    trace = build.export_chrome_trace(str(out / "trace.json"))
    build.export_metrics(str(out / "metrics.json"))
    (out / "metrics.txt").write_text(build.metrics_report() + "\n")
    (out / "profile.txt").write_text(build.profile_report() + "\n")
    build.export_attribution(str(out / "attribution.json"))
    (out / "attribution.txt").write_text(build.attribution_report_text() + "\n")

    problems = validate_chrome_trace(json.loads((out / "trace.json").read_text()))
    if problems:
        print("FAIL: trace schema problems:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    tracer = build.design.tracer
    roots = [s for s in tracer.closed_spans() if s.name.startswith("cmd:")]
    if not roots:
        print("FAIL: no closed command span", file=sys.stderr)
        return 1
    bursts = [
        c for c in tracer.children_of(roots[0].span_id) if c.name.startswith("axi:")
    ]
    if not bursts:
        print("FAIL: command span has no AXI burst children", file=sys.stderr)
        return 1

    n_events = len(trace["traceEvents"])
    print(f"wrote {out}/: trace.json ({n_events} events), metrics.json, "
          f"metrics.txt, profile.txt, attribution.json, attribution.txt")
    print(f"command span {roots[0].name!r}: cycles "
          f"{roots[0].begin_cycle}..{roots[0].end_cycle}, "
          f"{len(bursts)} AXI bursts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
