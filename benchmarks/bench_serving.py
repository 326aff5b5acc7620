"""Multi-tenant serving benchmark: SLO metrics under fair scheduling.

Runs the canonical serving profiles (see :mod:`repro.serve.scenarios`)
through the full stack — admission control, deficit-round-robin release,
kernel-class routing, the runtime server's MMIO arbitration — and reports
per-tenant p50/p99/p999 latency, goodput, rejection rate and Jain's fairness
index:

* ``symmetric``  — three identical closed-loop tenants over a 50/50
  gemm/attn mix on a heterogeneous two-system design.  The fairness gate
  (``--min-jain``, default 0.9) runs here: identical offered load must get
  near-identical goodput.
* ``asymmetric`` — an open-loop flooder with a tight rate quota next to a
  steady and a bursty tenant; shows typed admission rejections shielding the
  well-behaved tenants (the flood tenant absorbs all rejections).

Each profile runs under both scheduling backends and the report must be
**bit-identical** across them — the serving layer's determinism contract
(seeded simulated-time arrivals, decisions only at pump cycles) makes the
whole SLO report a pure function of the seed.  The benchmark doubles as
that differential check.

Run as a script to emit ``BENCH_serving.json``::

    python benchmarks/bench_serving.py --quick --out BENCH_serving.json
"""

import argparse
import json
import time

from repro.serve.scenarios import run_scenario
from repro.sim import SCHEDULING_MODES


def _run_profile(profile, seed, n_requests):
    """One profile under both modes; asserts report bit-identity."""
    reports = {}
    walls = {}
    batch = {}
    for mode in SCHEDULING_MODES:
        t0 = time.perf_counter()
        report, service, build = run_scenario(
            profile, seed=seed, mode=mode, n_requests=n_requests
        )
        walls[mode] = round(time.perf_counter() - t0, 6)
        reports[mode] = report.to_dict()
        server = service.handle.server
        batch[mode] = {
            "batch_lock_skips": int(server.batch_lock_skips),
            "batch_cycles_saved": int(server.batch_cycles_saved),
            "coalesced": int(service.scheduler.coalesced),
            "fifo_violations": int(server.fifo_violations),
        }
    canonical = json.dumps(reports[SCHEDULING_MODES[0]], sort_keys=True)
    for mode in SCHEDULING_MODES[1:]:
        if json.dumps(reports[mode], sort_keys=True) != canonical:
            raise AssertionError(
                f"{profile}: serving report differs between "
                f"{SCHEDULING_MODES[0]} and {mode} (determinism contract broken)"
            )
    if json.dumps(batch[SCHEDULING_MODES[0]], sort_keys=True) != json.dumps(
        batch[SCHEDULING_MODES[-1]], sort_keys=True
    ):
        raise AssertionError(f"{profile}: batching counters differ across modes")
    out = dict(reports[SCHEDULING_MODES[0]])
    out["batching"] = batch[SCHEDULING_MODES[0]]
    out["wall_seconds_by_mode"] = walls
    return out


def run_benchmark(seed=42, quick=False):
    return {
        "seed": seed,
        "quick": quick,
        "profiles": {
            "symmetric": _run_profile("symmetric", seed, 12 if quick else 24),
            "asymmetric": _run_profile("asymmetric", seed, 8 if quick else 16),
        },
    }


def render(results) -> str:
    lines = []
    for profile, data in results["profiles"].items():
        lines.append(
            f"{profile}: jain={data['fairness_jain']:.3f} "
            f"elapsed={data['elapsed_cycles']} cycles "
            f"(lock skips {data['batching']['batch_lock_skips']}, "
            f"{data['batching']['batch_cycles_saved']} cycles saved)"
        )
        header = (
            f"  {'tenant':<10} {'ok':>5} {'fail':>5} {'rej':>5} "
            f"{'p50':>7} {'p99':>7} {'p999':>7} {'goodput':>9} {'rej_rate':>8}"
        )
        lines.append(header)
        for name in sorted(data["tenants"]):
            t = data["tenants"][name]
            lines.append(
                f"  {name:<10} {t['completed']:>5} {t['failed']:>5} "
                f"{t['rejected']:>5} {t['p50']:>7} {t['p99']:>7} "
                f"{t['p999']:>7} {t['goodput']:>9.3f} "
                f"{t['rejection_rate']:>8.3f}"
            )
    return "\n".join(lines)


def test_serving_bench_gates():
    """The symmetric profile is fair (Jain >= 0.9) and both profiles are
    bit-identical across both scheduling backends (enforced inside
    ``_run_profile``)."""
    results = run_benchmark(seed=42, quick=True)
    print()
    print(render(results))
    assert results["profiles"]["symmetric"]["fairness_jain"] >= 0.9
    flood = results["profiles"]["asymmetric"]["tenants"]["flood"]
    assert flood["rejected"] > 0  # admission control actually engaged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer requests per tenant")
    parser.add_argument("--out", default="BENCH_serving.json")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--min-jain", type=float, default=0.9,
        help="fail unless the symmetric profile's Jain fairness index "
        "reaches this floor (0 disables)",
    )
    args = parser.parse_args()
    results = run_benchmark(seed=args.seed, quick=args.quick)
    print(render(results))
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    jain = results["profiles"]["symmetric"]["fairness_jain"]
    if args.min_jain and jain < args.min_jain:
        raise SystemExit(
            f"symmetric fairness Jain index {jain:.3f} < required {args.min_jain}"
        )
    flood = results["profiles"]["asymmetric"]["tenants"]["flood"]
    if flood["rejected"] == 0:
        raise SystemExit("asymmetric profile produced no admission rejections")


if __name__ == "__main__":
    main()
