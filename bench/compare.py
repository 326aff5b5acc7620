"""Judge one results file against another (``run.py --compare A B``).

For every workload and end-to-end metric: both medians, the relative
difference, the bound, and a verdict —

* ``ok``         B is not worse than A by more than the bound;
* ``worse``      it is;
* ``unresolved`` the run-to-run spread is wider than the bound and the two
  sets' runs interleave, so the medians cannot settle it either way;
* ``changed``    an exact quantity (simulated cycles, latencies, model
  counters, digests) differs at all: the modelled machine changed.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from metrics import COUNTERS, END_TO_END

DRIFT_FLAG = 0.05


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _verdict(metric, a: Dict, b: Dict) -> str:
    if metric.exact:
        return "ok" if a["median"] == b["median"] else "changed"
    base = a["median"]
    spread = max(_iqr(a["values"]), _iqr(b["values"])) / base
    interleave = min(b["values"]) <= max(a["values"]) and min(a["values"]) <= max(b["values"])
    if spread > metric.bound and interleave:
        return "unresolved"
    worse_by = (b["median"] - base) / base
    if metric.better == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > metric.bound else "ok"


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        set_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        set_b = json.load(fh)
    bad = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<18} {'metric':<18} {'A median':>14} {'B median':>14} "
          f"{'B vs A':>8} {'bound':>6}  verdict")
    for workload, wa in set_a["workloads"].items():
        wb = set_b["workloads"].get(workload)
        if wb is None:
            print(f"{workload:<18} missing from B")
            bad += 1
            continue
        for metric in END_TO_END:
            a, b = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            verdict = _verdict(metric, a, b)
            rel = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            bound = 0.0 if metric.exact else metric.bound
            print(f"{workload:<18} {metric.name:<18} {a['median']:>14.4f} "
                  f"{b['median']:>14.4f} {rel:>+8.2%} {bound:>6.2f}  {verdict}")
            bad += verdict in ("worse", "changed")
        exact = {"digest": (wa["digest"], wb["digest"]),
                 "fail_frac": (wa["fail_frac"], wb["fail_frac"])}
        for name in COUNTERS:
            if name in wa["per_layer"] and name in wb["per_layer"]:
                exact[name] = (wa["per_layer"][name]["value"], wb["per_layer"][name]["value"])
        moved = [f"{name}: {va} -> {vb}" for name, (va, vb) in exact.items() if va != vb]
        if moved:
            bad += 1
            print(f"{workload:<18} changed (exact): " + "; ".join(moved))
        if wb["fail_frac"]:
            print(f"!!!! {workload}: fail_frac {wb['fail_frac']:.6f} in B !!!!")
    calib_a, calib_b = set_a["host_calib_s"], set_b["host_calib_s"]
    drift = (calib_b - calib_a) / calib_a
    flag = ("  <-- HOST DRIFT > 5%: the probe correction is carrying this much"
            if abs(drift) > DRIFT_FLAG else "")
    print(f"host_calib_s  A {calib_a * 1e6:.1f} us  B {calib_b * 1e6:.1f} us per probe  "
          f"({drift:+.1%}){flag}")
    print("verdict: " + ("sets agree" if not bad else f"{bad} row(s) worse or changed"))
    return 1 if bad else 0
