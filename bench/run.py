"""The repo's end-to-end benchmark: six workloads, whole-run host seconds.

Three ways to run it (always from the repo root):

* ``python3 bench/run.py`` — the full set: every workload, ``--reps``
  untraced reps plus one traced rep each, round-robin; prints every metric
  by name with its unit and writes the results JSON (``--out``).
* ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` —
  one driver run (the ``BENCHMARK.json`` contract): reps of ``W`` until
  ``S`` seconds are used; the last stdout line is the result object.
* ``python3 bench/run.py --compare A.json B.json`` — judge set B against
  set A, metric by metric, with the bounds of ``metrics.py``.

Every rep is a fresh ``rep.py`` process, one at a time; see ``README.md``
for the protocol and why the gated time is CPU seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from compare import compare_files  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS, per_layer_values  # noqa: E402

#: Scratch space for farm caches and checkpoint files; inside the checkout
#: (the driver's rule); each rep's directory is removed when the rep ends.
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REP_TIMEOUT_S = 150
MIN_REPS = 3
#: What one host-speed probe (tracing.CpuTicker) takes on the quiet reference
#: host.  Reported seconds are CPU seconds at that speed: raw CPU seconds x
#: PROBE_REF_S / (mean probe time while the rep ran).
PROBE_REF_S = 40e-6


class BenchError(RuntimeError):
    """A rep could not be run or broke the determinism contract."""


# ------------------------------------------------------------------- one rep
def run_rep(workload: str, seed: int, traced: bool = False, scale: float = 1.0) -> Dict[str, Any]:
    """Run one rep in a fresh interpreter; returns its record with the
    parent-side measurements (``host_cpu_s``) added."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = workdir
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--trace", str(int(traced)), "--workdir", workdir,
    ]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: rep exceeded {REP_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still in there
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: rep exited with code {proc.returncode}")
    record = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    # Children run one at a time, so the delta is exactly this child.
    record["raw_cpu_s"] = (
        after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    record["raw_setup_s"] = record["setup_s"]
    slowdown = record["probe_s"] / PROBE_REF_S
    record["host_cpu_s"] = record["raw_cpu_s"] / slowdown
    record["setup_s"] *= PROBE_REF_S / record["setup_probe_s"]
    for slot in record["spans"].values():
        slot["s"] /= slowdown
    record["sim_kcycles_per_s"] = record["sim_cycles"] / record["host_cpu_s"] / 1000.0
    return record


# ------------------------------------------------------------------ summaries
def check_deterministic(workload: str, records: List[Dict[str, Any]]) -> None:
    """Reps of one workload (same seed) must agree exactly, traced or not."""
    seen = {(r["sim_cycles"], r["cmd_p50_cycles"], r["cmd_p99_cycles"], r["digest"])
            for r in records}
    if len(seen) != 1:
        raise BenchError(
            f"{workload}: reps disagree on sim_cycles/latency/digest: {sorted(seen)}")


def summarise(workload: str, records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end medians from the untraced reps, per-layer numbers from the
    traced ones (medians when there are several)."""
    check_deterministic(workload, records)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    out: Dict[str, Any] = {
        "digest": records[0]["digest"],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "messages": [m for r in records for m in r["messages"]][:5],
        "end_to_end": {},
        "per_layer": {},
        "reps": [
            {k: r[k] for k in ("traced", "seed", "host_cpu_s", "raw_cpu_s", "wall_s",
                               "setup_s", "raw_setup_s", "probe_s", "peak_rss_mb")}
            for r in records
        ],
    }
    for m in END_TO_END:
        values = [r[m.name] for r in untraced]
        if values:
            out["end_to_end"][m.name] = {
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "n": len(values), "unit": m.unit, "values": values,
            }
    if traced and untraced:
        base = out["end_to_end"]["host_cpu_s"]["median"]
        per_rep = [per_layer_values(r, base) for r in traced]
        for m in PER_LAYER:
            out["per_layer"][m.name] = {
                "value": statistics.median(v[m.name] for v in per_rep), "unit": m.unit}
    return out


def print_summary(workload: str, summary: Dict[str, Any]) -> None:
    print(f"\n== {workload}  digest {summary['digest'][:16]}  "
          f"fail_frac {summary['fail_frac']:.6f} "
          f"({summary['failed']}/{summary['attempted']} operations)")
    if summary["failed"]:
        print(f"!!!! {workload}: {summary['failed']} OPERATION(S) FAILED !!!!")
        for message in summary["messages"]:
            print(f"     {message}")
    for name, s in summary["end_to_end"].items():
        print(f"  {name:<20} {s['median']:>14.4f} {s['unit']:<10} "
              f"min {s['min']:.4f} max {s['max']:.4f} n={s['n']}")
    for name, s in summary["per_layer"].items():
        if s["value"]:
            print(f"    {name:<28} {s['value']:>16.6g} {s['unit']}")


# ----------------------------------------------------------------- full set
def run_set(seed: int, reps: int, out_path: str, spans_path: Optional[str]) -> int:
    records: Dict[str, List[Dict[str, Any]]] = {w: [] for w in WORKLOADS}
    span_logs = {}
    # Round-robin over workloads so slow host drift spreads evenly.
    for rep_idx in range(reps + 1):
        for workload in WORKLOADS:
            traced = rep_idx == reps
            record = run_rep(workload, seed, traced=traced)
            span_log = record.pop("span_log")
            if traced:
                span_logs[workload] = span_log
            records[workload].append(record)
            print(f"[{rep_idx + 1}/{reps + 1}] {workload:<18} "
                  f"{'traced' if traced else 'plain '} {record['host_cpu_s']:.3f} cpu-s",
                  flush=True)
    probe_times = [r["probe_s"] for recs in records.values() for r in recs]
    results = {
        "schema": 1,
        "seed": seed,
        "reps": reps,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "host_calib_s": statistics.median(probe_times),
        "workloads": {},
    }
    for workload, recs in records.items():
        summary = summarise(workload, recs)
        results["workloads"][workload] = summary
        print_summary(workload, summary)
    print(f"\nhost_calib_s {results['host_calib_s'] * 1e6:.1f} us per probe "
          f"(reference {PROBE_REF_S * 1e6:.0f} us; seconds above are at reference speed)")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(span_logs, fh)
        print(f"wrote {spans_path}")
    return 1 if any(s["failed"] for s in results["workloads"].values()) else 0


# --------------------------------------------------------------- driver run
def run_contract(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One driver run: reps until the budget is used, then the result line."""
    start = time.perf_counter()
    records: List[Dict[str, Any]] = []
    longest = 0.0
    while True:
        traced = trace and len(records) % 2 == 1
        t0 = time.perf_counter()
        record = run_rep(workload, seed, traced=traced)
        record.pop("span_log")
        records.append(record)
        longest = max(longest, time.perf_counter() - t0)
        enough = len(records) >= (2 if trace else MIN_REPS)
        if enough and time.perf_counter() - start + longest > seconds:
            break
    summary = summarise(workload, records)
    if trace:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in summary["per_layer"].items()}
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in summary["end_to_end"].items()}
    correct = summary["failed"] == 0
    if not correct:
        print_summary(workload, summary)
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="driver mode: measure only this workload")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="driver mode: how long to keep starting reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 prints the per-layer metrics")
    parser.add_argument("--reps", type=int, default=5,
                        help="full set: untraced reps per workload")
    parser.add_argument("--out", default="bench_results.json",
                        help="full set: results file")
    parser.add_argument("--spans", help="full set: also write the raw span logs here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    try:
        if args.workload:
            return run_contract(args.workload, args.seed, args.seconds, bool(args.trace))
        return run_set(args.seed, args.reps, args.out, args.spans)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
