#!/usr/bin/env python
"""Seeded chaos sweep over the full accelerator stack.

Runs the scenario x mode x seed cross product from ``repro.faults.chaos``
(each seed deterministically derives a ``FaultPlan`` — AXI beat drops and
corruption, DRAM bit-flips, MMIO response loss, core hangs) and checks the
robustness contract: every run must terminate bounded in an allowed outcome
(correct / typed error / degraded-but-correct), never hang and never return
silently corrupted data.  Writes into ``--out``:

* ``report.txt``        — outcome histogram per scenario/mode + violations
* ``outcomes.json``     — one record per run (outcome, cycles, fault
                          fingerprint, watchdog counters)
* ``differential.json`` — empty-FaultPlan no-op check per scheduling mode
* ``sample-trace.json`` / ``sample-metrics.json`` / ``sample-faults.json``
                        — Perfetto trace, metric dump and fault-event log of
                          one instrumented faulty run, for eyeballing what
                          recovery looks like on a timeline

and exits 1 on any contract violation (or a perturbed empty-plan
differential).  CI runs this; locally it is the chaos playground.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.faults import FaultError
from repro.sim import DeadlockError
from repro.faults.chaos import (
    CHAOS_WATCHDOG,
    MODES,
    SCENARIOS,
    default_plan,
    render_chaos_report,
    run_chaos_sweep,
    run_empty_plan_differential,
)


def _export_sample(out: Path, seed: int, mode: str, export_dump: bool = False) -> None:
    """Re-run one known-faulty memcpy schedule with observability on and
    export its trace/metrics/fault-log artefacts."""
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.obs import Observability
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle

    size = 1024
    deadlock_dump = None
    build = BeethovenBuild(
        memcpy_config(n_cores=2),
        AWSF1Platform(),
        scheduling=mode,
        faults=default_plan(seed),
        watchdog=CHAOS_WATCHDOG,
        observability=Observability(enabled=True),
    )
    handle = FpgaHandle(build.design)
    for core in range(2):
        pattern = bytes((i * 131 + 17 + seed) % 256 for i in range(size))
        src, dst = handle.malloc(size), handle.malloc(size)
        src.write(pattern)
        handle.copy_to_fpga(src)
        try:
            handle.call(
                "Memcpy", "memcpy", core,
                src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=size,
            ).get(max_cycles=400_000)
        except DeadlockError as exc:
            deadlock_dump = exc.dump or deadlock_dump
        except FaultError:
            pass  # typed errors are an allowed outcome; the trace still tells the story
    build.export_chrome_trace(str(out / "sample-trace.json"))
    build.export_metrics(str(out / "sample-metrics.json"))
    faults = build.design.faults
    (out / "sample-faults.json").write_text(
        json.dumps(
            {
                "seed": seed,
                "mode": mode,
                "plan": faults.plan.describe(),
                "fingerprint": faults.fingerprint(),
                "events": [asdict(e) for e in faults.events],
            },
            indent=2,
        )
        + "\n"
    )
    if export_dump:
        from repro.sim.trace import compact_state_dump, export_state_dump

        # Prefer the dump a deadlock carried (the interesting moment);
        # otherwise dump the end-of-run state so the flag always delivers.
        dump = deadlock_dump or compact_state_dump(build.design.sim.state_dump())
        export_state_dump(dump, str(out / "sample-state-dump.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50, help="seeds per cell")
    parser.add_argument(
        "--scenarios", nargs="+", default=list(SCENARIOS), choices=SCENARIOS
    )
    parser.add_argument(
        "--modes",
        nargs="+",
        default=list(MODES),
        choices=MODES,
        help="scheduling modes",
    )
    parser.add_argument("--out", default="chaos-artifacts", help="output directory")
    parser.add_argument(
        "--no-sample", action="store_true", help="skip the instrumented sample export"
    )
    parser.add_argument(
        "--export-state-dump",
        action="store_true",
        help="also export the sample run's simulator state dump (or the dump "
        "carried by a deadlock, if one fires) as sample-state-dump.json",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    outcomes = run_chaos_sweep(range(args.seeds), args.scenarios, args.modes)
    report = render_chaos_report(outcomes)
    print(report)
    (out / "report.txt").write_text(report + "\n")
    (out / "outcomes.json").write_text(
        json.dumps([asdict(o) for o in outcomes], indent=2) + "\n"
    )

    diffs = [run_empty_plan_differential(mode) for mode in args.modes]
    (out / "differential.json").write_text(json.dumps(diffs, indent=2) + "\n")
    perturbed = [d for d in diffs if not (d["identical"] and d["data_ok"])]
    for d in perturbed:
        print(
            f"FAIL: empty FaultPlan perturbed {d['mode']}: cycles={d['cycles']} "
            f"mismatched={d['mismatched_keys'][:8]}",
            file=sys.stderr,
        )
    if not perturbed:
        print(f"empty-plan differential: strict no-op in {len(diffs)} mode(s)")

    if not args.no_sample:
        sample = next(
            (
                o
                for o in outcomes
                if o.scenario == "memcpy" and o.n_faults > 0 and not o.violates_contract
            ),
            None,
        )
        if sample is not None:
            _export_sample(out, sample.seed, sample.mode, export_dump=args.export_state_dump)
            print(
                f"sample artefacts: memcpy/{sample.mode} seed={sample.seed} "
                f"({sample.n_faults} faults, outcome={sample.outcome})"
            )

    violations = [o for o in outcomes if o.violates_contract]
    if violations or perturbed:
        print(
            f"FAIL: {len(violations)} contract violation(s), "
            f"{len(perturbed)} perturbed differential(s)",
            file=sys.stderr,
        )
        return 1
    print(f"wrote {out}/: report.txt, outcomes.json, differential.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
