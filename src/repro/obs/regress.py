"""Bench-history tracking and trailing-baseline regression detection.

``tools/bench_history.py`` (the CLI over this module) appends each
``BENCH_*.json`` benchmark result to a JSONL history file, stamped with git
and source-tree provenance, and flags the latest run's perf metrics against
the mean of the trailing window of prior runs.

Design points:

* **JSONL, append-only** — one self-contained entry per line, so CI can
  persist the file through a cache and concatenation is merge-free.
* **Provenance per entry** — git SHA + dirty flag (best-effort: ``unknown``
  outside a checkout) and the :func:`repro.farm.code_salt` source-tree
  digest, so a flagged regression can always be traced to the code that
  produced it.
* **Direction-aware comparison** — benchmark JSON mixes higher-is-better
  throughput/speedup numbers with lower-is-better latencies and neutral
  configuration echoes; keys are classified by leaf-name convention and
  neutral keys are never gated on.
* **Warm-up rule** — with fewer than two history points there is no
  baseline, so the check warns and passes; CI gates only once the trailing
  window exists.
"""

from __future__ import annotations

import json
import subprocess
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Leaf-name fragments marking a metric where bigger is better.
_HIGHER_BETTER = (
    "speedup",
    "per_second",
    "rate",
    "fraction",
    "throughput",
    "goodput",
    "fairness",
)
#: Leaf names where smaller is better (latency-like).  Deterministic cycle
#: counts belong here: a cycle increase is a real simulated-perf regression.
#: Checked *before* the higher-better fragments so that a lower-better leaf
#: containing one of them (``rejection_rate`` contains ``rate``) classifies
#: correctly.
_LOWER_BETTER = (
    "wall_seconds",
    "setup_seconds",
    "end_to_end_seconds",
    "elaborate_seconds",
    "simulate_seconds",
    "cache_seconds",
    "cycles",
    "elapsed_cycles",
    "executed_ticks",
    "latency",
    "p50",
    "p90",
    "p99",
    "p999",
    "mean_latency",
    "mean_queue_wait",
    "rejection_rate",
    "checkpoint_write_seconds",
    "capture_seconds",
    "save_seconds",
    "load_seconds",
    "restore_seconds",
    "snapshot_bytes",
    "objects_frozen",
)
#: Leaf names that are plain event counts, not perf metrics — excluded
#: before fragment matching because some collide with a fragment
#: (``rejected_by_reason.rate_limited`` contains ``rate``).
_NEUTRAL = ("rate_limited", "queue_full", "memory_budget")


def flatten_numeric(obj: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts to ``a.b.c -> number``; non-numbers are dropped."""
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, path))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    return out


def metric_direction(key: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 not a perf metric.

    Lower-better names must match the leaf exactly (so ``cycles_per_second``
    never reads as a latency) and are checked first, because some contain a
    higher-better fragment (``rejection_rate`` contains ``rate``).
    Higher-better fragments are then matched anywhere in the dotted path
    (bench JSON nests e.g. ``speedup.compiled_vs_naive``).
    """
    leaf = key.rsplit(".", 1)[-1]
    if leaf in _LOWER_BETTER:
        return -1
    if leaf in _NEUTRAL:
        return 0
    if any(frag in key for frag in _HIGHER_BETTER):
        return 1
    return 0


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def provenance() -> Dict[str, Any]:
    """Best-effort git + source-tree identity of the current checkout."""
    from repro.farm import code_salt

    sha = _git("rev-parse", "HEAD") or "unknown"
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "code_salt": code_salt(),
    }


def history_entry(bench: Dict[str, Any], name: str) -> Dict[str, Any]:
    """One JSONL history record for a benchmark result object."""
    entry = {
        "recorded_unix": time.time(),
        "bench": name,
        "metrics": flatten_numeric(bench),
    }
    entry.update(provenance())
    return entry


def append_history(history_path: str, bench_path: str, name: Optional[str] = None) -> Dict[str, Any]:
    """Append ``bench_path``'s result to the JSONL history; returns the entry."""
    with open(bench_path) as f:
        bench = json.load(f)
    if name is None:
        stem = bench_path.rsplit("/", 1)[-1]
        name = stem[len("BENCH_") :] if stem.startswith("BENCH_") else stem
        name = name.rsplit(".", 1)[0]
    entry = history_entry(bench, name)
    with open(history_path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(history_path: str, name: Optional[str] = None) -> List[Dict[str, Any]]:
    """Parse the JSONL history (missing file -> empty); optionally filter."""
    entries: List[Dict[str, Any]] = []
    try:
        with open(history_path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # tolerate a torn tail line from a killed run
                if name is None or entry.get("bench") == name:
                    entries.append(entry)
    except FileNotFoundError:
        pass
    return entries


def check_regressions(
    entries: Iterable[Dict[str, Any]],
    window: int = 5,
    tolerance: float = 0.2,
) -> Tuple[bool, List[Dict[str, Any]], int]:
    """Compare the newest entry against the trailing-window mean.

    Returns ``(ok, findings, n_baseline)``: ``ok`` is False only when a perf
    metric moved against its direction by more than ``tolerance`` relative to
    the baseline mean.  ``n_baseline == 0`` means no verdict is possible (the
    warm-up case); callers must treat that as a pass-with-warning.
    """
    entries = list(entries)
    if len(entries) < 2:
        return True, [], 0
    latest = entries[-1]
    baseline = entries[-1 - window : -1]
    findings: List[Dict[str, Any]] = []
    latest_metrics = latest.get("metrics", {})
    for key, value in sorted(latest_metrics.items()):
        direction = metric_direction(key)
        if direction == 0:
            continue
        samples = [
            e["metrics"][key]
            for e in baseline
            if key in e.get("metrics", {})
        ]
        if not samples:
            continue
        mean = sum(samples) / len(samples)
        if mean == 0:
            continue
        ratio = value / mean
        regressed = (
            ratio < 1.0 - tolerance if direction > 0 else ratio > 1.0 + tolerance
        )
        if regressed:
            findings.append(
                {
                    "metric": key,
                    "latest": value,
                    "baseline_mean": mean,
                    "ratio": ratio,
                    "direction": "higher-better" if direction > 0 else "lower-better",
                }
            )
    return not findings, findings, len(baseline)


def render_check(
    ok: bool, findings: List[Dict[str, Any]], n_baseline: int, name: str
) -> str:
    """Human summary of one :func:`check_regressions` verdict."""
    if n_baseline == 0:
        return (
            f"bench-history[{name}]: fewer than 2 history points — "
            "no baseline yet, skipping regression gate (warn-only run)"
        )
    if ok:
        return (
            f"bench-history[{name}]: OK against trailing {n_baseline}-run baseline"
        )
    lines = [
        f"bench-history[{name}]: {len(findings)} regression(s) vs "
        f"trailing {n_baseline}-run baseline:"
    ]
    for f in findings:
        lines.append(
            f"  {f['metric']}: {f['latest']:.4g} vs baseline mean "
            f"{f['baseline_mean']:.4g} ({f['ratio']:.2f}x, {f['direction']})"
        )
    return "\n".join(lines)
