"""Post-simulation analysis helpers.

Operate on :class:`~repro.axi.TxnRecord` lists (from the AXI monitor) and on
controller reports to extract the quantities the paper's evaluation plots:
throughput, latency distributions, latency-under-load growth, and per-master
bandwidth shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.axi.monitor import TxnRecord


@dataclass(frozen=True)
class LatencyStats:
    count: int
    mean: float
    p50: float
    p95: float
    max: float
    growth: float  # max latency / first-quartile mean: queueing indicator

    @staticmethod
    def empty() -> "LatencyStats":
        return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 1.0)


def _percentile(sorted_vals: Sequence[int], frac: float) -> float:
    """Percentile with linear interpolation between closest ranks.

    ``frac`` in [0, 1] maps onto rank ``frac * (n - 1)``; fractional ranks
    interpolate between the two bracketing observations (the numpy
    ``linear`` convention), so p50 of ``[1, 2, 3, 4]`` is 2.5, not 3.
    """
    if not sorted_vals:
        return 0.0
    frac = min(max(frac, 0.0), 1.0)
    rank = frac * (len(sorted_vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_vals) - 1)
    weight = rank - lo
    return float(sorted_vals[lo]) + (float(sorted_vals[hi]) - float(sorted_vals[lo])) * weight


def latency_stats(records: Sequence[TxnRecord], kind: Optional[str] = None) -> LatencyStats:
    """Latency distribution of completed transactions."""
    lats = [
        r.latency
        for r in records
        if r.complete_cycle is not None and (kind is None or r.kind == kind)
    ]
    if not lats:
        return LatencyStats.empty()
    ordered = sorted(lats)
    quartile = max(len(lats) // 4, 1)
    by_issue = [
        r.latency
        for r in sorted(
            (
                r
                for r in records
                if r.complete_cycle is not None and (kind is None or r.kind == kind)
            ),
            key=lambda r: r.issue_cycle,
        )
    ]
    head_mean = sum(by_issue[:quartile]) / quartile
    return LatencyStats(
        count=len(lats),
        mean=sum(lats) / len(lats),
        p50=_percentile(ordered, 0.50),
        p95=_percentile(ordered, 0.95),
        max=float(ordered[-1]),
        growth=ordered[-1] / head_mean if head_mean else 1.0,
    )


def bytes_transferred(records: Sequence[TxnRecord]) -> Dict[str, int]:
    """Bytes read and written by the completed transactions, in 64-byte
    beats (the F1 DDR port)."""
    out = {"read": 0, "write": 0}
    for r in records:
        if r.complete_cycle is not None:
            out[r.kind] += r.length * 64
    return out


def bandwidth_share(records: Sequence[TxnRecord], region_of) -> Dict[object, int]:
    """Bytes moved per region key (``region_of(addr) -> key``), in 64-byte
    beats: used to check that the tree arbitration shares bandwidth fairly
    across masters working in disjoint address regions."""
    shares: Dict[object, int] = {}
    for r in records:
        if r.complete_cycle is None:
            continue
        key = region_of(r.addr)
        shares[key] = shares.get(key, 0) + r.length * 64
    return shares


# ---------------------------------------------------------------------------
# Registry-backed views (see :mod:`repro.obs.registry`).
#
# These read the unified metric namespace instead of reaching into model
# internals, so they work on any design — or on a metrics dump loaded back
# from ``export_metrics`` — without holding the live objects.
# ---------------------------------------------------------------------------


def registry_frame(registry, prefix: Optional[str] = None) -> Dict[str, float]:
    """Flatten a :class:`MetricRegistry` dump into scalar rows.

    Histogram entries contribute ``<name>/count`` and ``<name>/mean`` rows;
    counters and gauges map straight through.
    """
    out: Dict[str, float] = {}
    for name, value in registry.dump(prefix).items():
        if isinstance(value, dict):
            count = float(value.get("count", 0))
            out[f"{name}/count"] = count
            out[f"{name}/mean"] = float(value.get("total", 0)) / count if count else 0.0
        else:
            out[name] = float(value)
    return out


def dram_bus_utilisation(registry) -> float:
    """Data-bus utilisation of the ``dram/mc`` controller, from registry
    counters alone."""
    cycles = registry.value("sim/cycles_total", 0)
    busy = registry.value("dram/mc/bus_cycles", 0)
    return int(busy) / max(int(cycles), 1)


def dram_row_hit_rate(registry) -> float:
    """Fraction of the ``dram/mc`` controller's column accesses that hit an
    open row."""
    hits = int(registry.value("dram/mc/row_hits", 0))
    misses = int(registry.value("dram/mc/row_misses", 0))
    total = hits + misses
    return hits / total if total else 0.0


def skip_fraction(registry) -> float:
    """Fraction of simulated cycles the compiled schedule jumped over."""
    cycles = int(registry.value("sim/cycles_total", 0))
    skipped = int(registry.value("sim/cycles_skipped", 0))
    return skipped / cycles if cycles else 0.0


def noc_link_beats(registry) -> Dict[str, int]:
    """Total beats forwarded per NoC buffer node (sum over AXI channels)."""
    totals: Dict[str, int] = {}
    for name in registry.names("noc"):
        stem, _, leaf = name.rpartition("/")
        if leaf.startswith("forwarded_"):
            node = stem[len("noc/"):]
            totals[node] = totals.get(node, 0) + int(registry.value(name))
    return totals


# ---------------------------------------------------------------------------
# Sweep views (see :mod:`repro.dse` and :mod:`repro.farm`).
#
# DesignPoints carry their own provenance — build wall-time, cache hit/miss,
# source — so sweep reports can show *where the time went* without
# holding the farm that produced them.
# ---------------------------------------------------------------------------


def sweep_frame(points: Sequence) -> Dict[str, float]:
    """Scalar summary of a sweep: frontier, build cost, cache effectiveness.

    ``build_seconds`` on a cache-served point is the original compute time
    stored with the entry, so ``build_seconds_saved`` is real time the cache
    returned to the caller.
    """
    built = [p for p in points if not getattr(p, "cache_hit", False)]
    hits = [p for p in points if getattr(p, "cache_hit", False)]
    feasible = [p.n_cores for p in points if p.feasible]
    return {
        "points": float(len(points)),
        "built": float(len(built)),
        "cache_hits": float(len(hits)),
        "cache_hit_rate": len(hits) / len(points) if points else 0.0,
        "build_seconds_spent": sum(getattr(p, "build_seconds", 0.0) for p in built),
        "build_seconds_saved": sum(getattr(p, "build_seconds", 0.0) for p in hits),
        "max_feasible_cores": float(max(feasible)) if feasible else 0.0,
    }


def render_sweep_report(points: Sequence) -> str:
    """Human-readable sweep table with per-point provenance and a footer."""
    lines = [
        f"{'cores':>5} {'feasible':>8} {'worst util':>10} {'build s':>8} "
        f"{'source':>8} {'limited by':<30}"
    ]
    for p in sorted(points, key=lambda p: p.n_cores):
        source = "cache" if getattr(p, "cache_hit", False) else (
            getattr(p, "worker", "") or "local"
        )
        reasons = "; ".join(p.reasons[:1]) if p.reasons else "-"
        lines.append(
            f"{p.n_cores:>5} {'yes' if p.feasible else 'NO':>8} "
            f"{p.worst_util:>9.1%} {getattr(p, 'build_seconds', 0.0):>8.3f} "
            f"{source:>8} {reasons:<30}"
        )
    f = sweep_frame(points)
    lines.append(
        f"frontier: {f['max_feasible_cores']:.0f} cores | "
        f"built {f['built']:.0f}/{f['points']:.0f} points in "
        f"{f['build_seconds_spent']:.2f}s | cache served "
        f"{f['cache_hits']:.0f} ({f['cache_hit_rate']:.0%}), saving "
        f"{f['build_seconds_saved']:.2f}s"
    )
    return "\n".join(lines)
