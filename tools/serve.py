#!/usr/bin/env python
"""Multi-tenant serving CLI: run a profile, report SLOs, export artefacts.

Drives one of the canonical serving profiles (``symmetric`` /
``asymmetric`` / ``smoke``, see :mod:`repro.serve.scenarios`) through the
full serving stack — admission control, deficit-round-robin fairness,
kernel-class routing, command batching — and writes into ``--out``:

* ``BENCH_serving.json``      — the per-tenant SLO report (p50/p99/p999,
                                goodput, rejection rate, Jain fairness)
* ``serving-attribution.json``— cycle attribution of the same run with the
                                per-tenant rollup (``tenants`` key), from an
                                instrumented re-run
* ``report.txt``              — the human-readable SLO table

``--smoke`` additionally (a) re-runs the profile under every scheduling
backend and fails unless the reports are bit-identical (the determinism
contract) and the runtime handle holds no live call once each run drained,
and (b) runs a small chaos slice over the ``serving`` scenario —
seeded fault schedules through the serving layer must terminate bounded in
ok / degraded / typed-error, identically across modes.  CI runs
``--smoke``; locally this is the serving playground.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.obs import Observability
from repro.serve.scenarios import PROFILES, run_scenario
from repro.sim import DEFAULT_SCHEDULING, SCHEDULING_MODES, class_tick_table, render_class_tick_table


def _mode_identity(profile: str, seed: int, n_requests: int) -> tuple:
    """Run ``profile`` under every backend; returns the canonical report and,
    per backend, how many calls the runtime handle still held live once the
    run drained (0 unless a settled call failed to leave its table).

    Raises AssertionError when any backend disagrees bit-for-bit.
    """
    reports, live = {}, {}
    for mode in SCHEDULING_MODES:
        report, service, _build = run_scenario(
            profile, seed=seed, mode=mode, n_requests=n_requests
        )
        reports[mode] = report.to_dict()
        live[mode] = service.handle.live_calls
    canonical = json.dumps(reports[SCHEDULING_MODES[0]], sort_keys=True)
    for mode, rep in reports.items():
        if json.dumps(rep, sort_keys=True) != canonical:
            raise AssertionError(
                f"serving report differs between {SCHEDULING_MODES[0]} and "
                f"{mode} on profile {profile!r}"
            )
    return reports[SCHEDULING_MODES[0]], live


def _chaos_slice(seeds: int) -> list:
    """Seeded chaos schedules over the serving scenario, all modes."""
    from repro.faults.chaos import run_chaos

    outcomes = []
    for seed in range(seeds):
        per_mode = []
        for mode in SCHEDULING_MODES:
            o = run_chaos("serving", mode, seed)
            per_mode.append(o)
            outcomes.append(o)
        identity = {
            (o.outcome, o.cycles, o.fingerprint, o.error) for o in per_mode
        }
        if len(identity) != 1:
            raise AssertionError(
                f"serving chaos seed {seed} diverges across modes: {identity}"
            )
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--profile", default="symmetric", choices=PROFILES,
        help="tenant mix preset to run",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--requests", type=int, default=16, help="requests per tenant")
    parser.add_argument("--mode", default=DEFAULT_SCHEDULING, choices=SCHEDULING_MODES,
                        help="scheduling backend")
    parser.add_argument("--out", default="serving-artifacts", help="output directory")
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: small mix + all-mode bit-identity + a chaos slice "
        "over the serving scenario",
    )
    parser.add_argument("--chaos-seeds", type=int, default=8,
                        help="seeds for the --smoke chaos slice")
    parser.add_argument("--min-jain", type=float, default=0.0,
                        help="fail unless Jain fairness reaches this floor")
    parser.add_argument(
        "--resume", action="store_true",
        help="keep a stage log in --out and skip stages a previous run with "
        "identical arguments already completed (report / attribution / chaos)",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    stage_log = None
    if args.resume:
        from repro.snapshot.store import StageLog

        config = {k: v for k, v in vars(args).items() if k != "resume"}
        stage_log = StageLog(str(out / "stages.json"), config)

    def _stage_done(name: str, *artifacts: Path) -> bool:
        return (
            stage_log is not None
            and stage_log.is_done(name)
            and all(p.exists() for p in artifacts)
        )

    def _mark(name: str) -> None:
        if stage_log is not None:
            stage_log.mark_done(name)

    profile = args.profile
    n_requests = min(args.requests, 8) if args.smoke else args.requests
    if args.smoke:
        profile = "smoke" if args.profile == "symmetric" else args.profile

    if _stage_done("report", out / "BENCH_serving.json"):
        report_dict = json.loads((out / "BENCH_serving.json").read_text())
        print("resume: report stage already complete")
    else:
        if args.smoke:
            report_dict, live = _mode_identity(profile, args.seed, n_requests)
            print(
                f"determinism: profile {profile!r} bit-identical across "
                f"{len(SCHEDULING_MODES)} scheduling backends"
            )
            print("live calls after the run drained: "
                  + " ".join(f"{mode}={n}" for mode, n in live.items()))
            if any(live.values()):
                print("FAIL: the runtime handle still holds settled calls", file=sys.stderr)
                return 1
        else:
            report, _service, _build = run_scenario(
                profile, seed=args.seed, mode=args.mode, n_requests=n_requests
            )
            report_dict = report.to_dict()
        (out / "BENCH_serving.json").write_text(
            json.dumps(report_dict, indent=2, sort_keys=True) + "\n"
        )
        _mark("report")

    if _stage_done("attribution", out / "serving-attribution.json", out / "report.txt"):
        text = (out / "report.txt").read_text().rstrip("\n")
        print(text)
        print("resume: attribution stage already complete")
    else:
        # Instrumented re-run of the same profile/seed for the tenant-tagged
        # attribution artefact (the uninstrumented runs above stay cheap).
        report, service, build = run_scenario(
            profile, seed=args.seed, mode=args.mode, n_requests=n_requests,
            observability=Observability(enabled=True, profile=False),
        )
        attribution = build.attribution_report(by_tenant=True)
        (out / "serving-attribution.json").write_text(
            json.dumps(attribution, indent=2, sort_keys=True, default=float) + "\n"
        )
        text = report.render()
        tenants = attribution.get("tenants", {})
        if tenants:
            text += "\n  per-tenant attribution bottleneck: " + ", ".join(
                f"{name or 'untagged'}={t['bottleneck']}" for name, t in tenants.items()
            )
        print(text)
        (out / "report.txt").write_text(text + "\n")
        if args.smoke:
            # Stdout only: the artefacts stay byte-comparable across PRs.
            print("executed ticks by component class:")
            print(render_class_tick_table(class_tick_table(build.design.sim)))
        _mark("attribution")

    if args.smoke:
        if _stage_done("chaos", out / "serving-chaos.json"):
            print("resume: chaos stage already complete")
        else:
            outcomes = _chaos_slice(args.chaos_seeds)
            (out / "serving-chaos.json").write_text(
                json.dumps([asdict(o) for o in outcomes], indent=2) + "\n"
            )
            violations = [o for o in outcomes if o.violates_contract]
            hist: dict = {}
            for o in outcomes:
                hist[o.outcome] = hist.get(o.outcome, 0) + 1
            print(
                f"serving chaos: {len(outcomes)} runs "
                + " ".join(f"{k}={v}" for k, v in sorted(hist.items()))
            )
            if violations:
                for o in violations[:10]:
                    print(
                        f"FAIL: serving chaos seed={o.seed} mode={o.mode}: "
                        f"{o.outcome} ({o.error})",
                        file=sys.stderr,
                    )
                return 1
            _mark("chaos")

    jain = report_dict["fairness_jain"]
    if args.min_jain and jain < args.min_jain:
        print(
            f"FAIL: Jain fairness {jain:.3f} < required {args.min_jain}",
            file=sys.stderr,
        )
        return 1
    print(f"wrote {out}/: BENCH_serving.json, serving-attribution.json, report.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
