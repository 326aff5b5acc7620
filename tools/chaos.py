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
                          the sweep's own run of one faulty memcpy seed,
                          for eyeballing what recovery looks like on a
                          timeline

and exits 1 on any contract violation, a perturbed empty-plan differential,
or a sample whose fault fingerprint is not the one the sweep recorded.  CI runs this; locally it is the chaos playground.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.faults.chaos import (
    MODES,
    SCENARIOS,
    chaos_memcpy,
    drive_memcpy,
    render_chaos_report,
    run_chaos_sweep,
    run_empty_plan_differential,
    run_scene,
)


def _export_sample(out: Path, seed: int, mode: str, export_dump: bool = False) -> str:
    """Re-run the sweep's memcpy run of ``(seed, mode)`` and export its
    trace, metrics and fault log; returns the exported fault fingerprint."""
    scene = chaos_memcpy(mode, seed)
    run_scene("memcpy", mode, seed, scene, drive_memcpy)
    build = scene[0]
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

        dump = compact_state_dump(build.design.sim.state_dump())
        export_state_dump(dump, str(out / "sample-state-dump.json"))
    return faults.fingerprint()


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
        help="also export the sample run's end-of-run simulator state dump "
        "as sample-state-dump.json",
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

    diverged = False
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
            exported = _export_sample(
                out, sample.seed, sample.mode, export_dump=args.export_state_dump
            )
            print(
                f"sample artefacts: memcpy/{sample.mode} seed={sample.seed} "
                f"({sample.n_faults} faults, outcome={sample.outcome})"
            )
            diverged = exported != sample.fingerprint
            if diverged:
                print(
                    f"FAIL: the exported sample's fault fingerprint {exported} is "
                    f"not the sweep's {sample.fingerprint}",
                    file=sys.stderr,
                )

    violations = [o for o in outcomes if o.violates_contract]
    if violations or perturbed or diverged:
        print(
            f"FAIL: {len(violations)} contract violation(s), "
            f"{len(perturbed)} perturbed differential(s), "
            f"{int(diverged)} diverged sample",
            file=sys.stderr,
        )
        return 1
    print(f"wrote {out}/: report.txt, outcomes.json, differential.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
