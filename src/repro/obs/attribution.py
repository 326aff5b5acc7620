"""Cycle attribution: command critical paths and resource contention.

The span tracker (:mod:`repro.obs.spans`) records *that* a host command took
N cycles; this module explains *why*.  It combines three deterministic data
sources — the command span tree, the AXI monitor's DDR-boundary
:class:`~repro.axi.monitor.TxnRecord` timeline, and the contention counters
the DRAM/NoC/memory models keep — into an exact decomposition of every
command's end-to-end latency plus a system-wide bottleneck report.

Segment taxonomy (``SEGMENTS``), per command, mutually exclusive and
collectively exhaustive over ``[root.begin, root.end)``:

``queue_wait``        host enqueue -> runtime server wins the MMIO lock
``dispatch``          MMIO word serialisation at the server
``cmd_noc``           command in flight from server to core adapter
``core_compute``      execute window with no AXI burst outstanding
``mem_noc_request``   oldest outstanding burst travelling master -> DDR
``mem_dram_queue``    oldest burst enqueued at the controller, pre-data
``mem_dram_service``  oldest burst streaming data at the DDR boundary
``mem_noc_return``    oldest burst's data/response travelling DDR -> master
``mem_unmatched``     burst span with no DDR record (e.g. truncated trace)
``response``          response packed -> host polls completion

Exactness contract: segment boundaries are clamped monotonic inside the root
span, and the execute window is swept over *elementary intervals* (every
burst phase boundary splits the timeline) with oldest-burst-wins arbitration,
so ``sum(segments.values()) == root.duration`` holds for every command — the
acceptance bar for the bottleneck tool.  All inputs (spans, monitor records,
contention counters) are stable across both scheduling modes, so
attribution is scheduling-mode-identical;
``tests/test_fast_forward.py`` proves this bit-for-bit.

The DRAM-service split by row outcome (hit / activate / precharge /
turnaround / refresh) is computed at *report* level from the controller's
column counters and a :class:`~repro.dram.timing.DramTiming`, because the
per-cycle service segment does not know which column it overlapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import Span, Tracer

#: Ordered segment taxonomy; every CommandPath carries exactly these keys.
SEGMENTS = (
    "queue_wait",
    "dispatch",
    "cmd_noc",
    "core_compute",
    "mem_noc_request",
    "mem_dram_queue",
    "mem_dram_service",
    "mem_noc_return",
    "mem_unmatched",
    "response",
)

#: Bottleneck groups: which segments indict which resource.
SEGMENT_GROUPS = {
    "host": ("queue_wait", "dispatch", "response"),
    "noc": ("cmd_noc", "mem_noc_request", "mem_noc_return"),
    "dram": ("mem_dram_queue", "mem_dram_service"),
    "compute": ("core_compute",),
    "other": ("mem_unmatched",),
}


@dataclass
class CommandPath:
    """One command's latency decomposition; segments sum to ``end - begin``."""

    span_id: int
    label: str
    track: str
    begin: int
    end: int
    segments: Dict[str, int] = field(default_factory=dict)
    #: Serving-layer tenant tag ("" for untagged commands).
    tenant: str = ""

    @property
    def latency(self) -> int:
        return self.end - self.begin


def _match_records(spans: List[Span], monitors: Iterable) -> Dict[int, Any]:
    """Pair each axi burst span with the monitor TxnRecord of its request.

    The master stamps the request's transaction tag on the burst span, the
    fabric forwards the tag unchanged, and the DDR monitor records it, so
    the join is exact even when several masters issue identical bursts.
    """
    by_tag = {rec.tag: rec for monitor in monitors for rec in monitor.records}
    out: Dict[int, Any] = {}
    for span in spans:
        if span.name.startswith("axi:"):
            rec = by_tag.get(span.args.get("tag"))
            if rec is not None:
                out[span.span_id] = rec
    return out


def _clamp_chain(lo: int, hi: int, *points: Optional[int]) -> List[int]:
    """Clamp ``points`` into ``[lo, hi]`` and force them monotonic."""
    out: List[int] = []
    cur = lo
    for p in points:
        if p is None:
            p = cur
        p = max(cur, min(p, hi))
        out.append(p)
        cur = p
    return out


def _burst_phases(span: Span, rec, lo: int, hi: int) -> List[Tuple[int, int, str]]:
    """Phase intervals of one burst, clamped into the execute window."""
    b = max(lo, min(span.begin_cycle, hi))
    e = max(b, min(span.end_cycle if span.end_cycle is not None else hi, hi))
    if rec is None or rec.complete_cycle is None:
        return [(b, e, "mem_unmatched")] if e > b else []
    first = rec.first_data_cycle
    t1, t2, t3 = _clamp_chain(
        b, e, rec.issue_cycle, first if first is not None else rec.issue_cycle,
        rec.complete_cycle,
    )
    phases = [
        (b, t1, "mem_noc_request"),
        (t1, t2, "mem_dram_queue"),
        (t2, t3, "mem_dram_service"),
        (t3, e, "mem_noc_return"),
    ]
    return [(a, z, seg) for a, z, seg in phases if z > a]


def _sweep_execute_window(
    lo: int,
    hi: int,
    bursts: List[Tuple[Span, List[Tuple[int, int, str]]]],
    segments: Dict[str, int],
) -> None:
    """Attribute every cycle of ``[lo, hi)`` to exactly one segment.

    Elementary-interval sweep: all burst begin/end and phase boundaries split
    the window; each elementary interval belongs to the *oldest* burst open
    over it (ties by span id), in whatever phase that burst is in there, or
    to ``core_compute`` when no burst is open.  Oldest-wins matches the
    critical-path intuition: the command cannot retire before its oldest
    outstanding burst, so that burst's phase is the blocking resource.
    """
    if hi <= lo:
        return
    points = {lo, hi}
    for span, phases in bursts:
        for a, z, _ in phases:
            points.add(a)
            points.add(z)
    marks = sorted(p for p in points if lo <= p <= hi)
    for a, z in zip(marks, marks[1:]):
        if z <= a:
            continue
        best = None  # (begin, span_id, phases)
        for span, phases in bursts:
            if phases and phases[0][0] <= a and phases[-1][1] >= z:
                key = (phases[0][0], span.span_id)
                if best is None or key < best[0]:
                    best = (key, phases)
        if best is None:
            segments["core_compute"] += z - a
            continue
        for pa, pz, seg in best[1]:
            if pa <= a and z <= pz:
                segments[seg] += z - a
                break
        else:  # pragma: no cover - boundaries include all phase edges
            segments["mem_unmatched"] += z - a


def extract_command_paths(
    tracer: Optional[Tracer], monitors: Iterable = ()
) -> List[CommandPath]:
    """Decompose every closed ``cmd:*`` root span into named segments."""
    if tracer is None:
        return []
    spans = list(tracer.span_log)
    by_parent: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    rec_of = _match_records(spans, monitors)

    paths: List[CommandPath] = []
    for root in spans:
        if root.parent is not None or not root.name.startswith("cmd:"):
            continue
        if root.end_cycle is None:
            continue
        b, e = root.begin_cycle, root.end_cycle
        children = by_parent.get(root.span_id, [])
        dispatch = next((c for c in children if c.name == "dispatch"), None)
        execute = next((c for c in children if c.name == "execute"), None)
        axi_children = [c for c in children if c.name.startswith("axi:")]

        d0, d1 = _clamp_chain(
            b,
            e,
            dispatch.begin_cycle if dispatch else b,
            dispatch.end_cycle if dispatch else b,
        )
        # A command with no observed execute window books the remainder as
        # in-flight toward the core (cmd_noc) and a zero response segment.
        x0, x1 = _clamp_chain(
            d1,
            e,
            execute.begin_cycle if execute else e,
            execute.end_cycle if execute else e,
        )
        segments = {seg: 0 for seg in SEGMENTS}
        segments["queue_wait"] = d0 - b
        segments["dispatch"] = d1 - d0
        segments["cmd_noc"] = x0 - d1
        segments["response"] = e - x1
        bursts = []
        for child in axi_children:
            phases = _burst_phases(child, rec_of.get(child.span_id), x0, x1)
            if phases:
                bursts.append((child, phases))
        _sweep_execute_window(x0, x1, bursts, segments)
        paths.append(
            CommandPath(
                span_id=root.span_id,
                label=root.name[len("cmd:") :],
                track=root.track,
                begin=b,
                end=e,
                segments=segments,
                tenant=str(root.args.get("tenant", "")),
            )
        )
    return paths


def segment_totals(paths: Iterable[CommandPath]) -> Dict[str, int]:
    """Sum each segment over ``paths``; keys are exactly ``SEGMENTS``."""
    totals = {seg: 0 for seg in SEGMENTS}
    for path in paths:
        for seg, cycles in path.segments.items():
            totals[seg] += cycles
    return totals


def _rollup(paths: List[CommandPath]) -> Dict[str, Any]:
    """Command count, latency, segment and group shares and the bottleneck
    verdict of ``paths``; shares are of their summed latency."""
    totals = segment_totals(paths)
    total_latency = sum(p.latency for p in paths)
    n = len(paths)
    groups = {
        name: sum(totals[seg] for seg in segs)
        for name, segs in SEGMENT_GROUPS.items()
    }

    def share(cycles: int) -> float:
        return cycles / total_latency if total_latency else 0.0

    return {
        "commands": n,
        "total_latency_cycles": total_latency,
        "mean_latency_cycles": total_latency / n if n else 0.0,
        "segments": {
            seg: {"cycles": totals[seg], "share": share(totals[seg])}
            for seg in SEGMENTS
        },
        "groups": {
            name: {"cycles": cyc, "share": share(cyc)}
            for name, cyc in groups.items()
        },
        "bottleneck": (
            max(groups, key=lambda g: (groups[g], g)) if total_latency else None
        ),
    }


def tenant_rollup(paths: Iterable[CommandPath]) -> Dict[str, Dict[str, Any]]:
    """Per-tenant attribution: same segment taxonomy, grouped by tenant tag.

    Commands without a tenant tag (plain :class:`FpgaHandle` traffic) roll up
    under ``""``; callers rendering the result usually label that bucket
    "untagged".  Shares are of the tenant's own total latency, so a tenant's
    bottleneck verdict is independent of how much traffic it sent.  A
    tenant's rollup carries no ``groups`` table, only its verdict.
    """
    by_tenant: Dict[str, List[CommandPath]] = {}
    for path in paths:
        by_tenant.setdefault(path.tenant, []).append(path)
    out: Dict[str, Dict[str, Any]] = {}
    for tenant in sorted(by_tenant):
        rollup = _rollup(by_tenant[tenant])
        del rollup["groups"]
        out[tenant] = rollup
    return out


# --------------------------------------------------------------- contention
_DRAM_CHANNEL_KEYS = (
    "bus_cycles",
    "read_cols",
    "write_cols",
    "row_hits",
    "row_misses",
    "row_conflicts",
    "queue_wait_cycles",
    "activations",
    "refreshes",
    "turnarounds",
)
_TLP_STALL_KEYS = (
    "stall_gap_cycles",
    "stall_inflight_cycles",
    "stall_buffer_cycles",
    "stall_backpressure_cycles",
)


def contention_summary(metrics: Dict[str, Any], cycles: int) -> Dict[str, Any]:
    """Roll the models' contention counters into per-resource summaries.

    ``metrics`` is a flat registry dump (``registry.dump()``).  The scan is
    key-suffix based so it works for any design shape: DRAM channels under
    ``dram/``, NoC nodes under ``noc/.../stall_<ch>_cycles``, and the
    Reader/Writer TLP engines under ``reader/``/``writer/``.
    """
    dram = {k: 0 for k in _DRAM_CHANNEL_KEYS}
    banks: Dict[str, Dict[str, int]] = {}
    noc_stalls: Dict[str, int] = {}
    tlp = {"reader": dict.fromkeys(_TLP_STALL_KEYS, 0),
           "writer": dict.fromkeys(_TLP_STALL_KEYS, 0)}
    for path, value in metrics.items():
        parts = path.split("/")
        leaf = parts[0] if len(parts) == 1 else parts[-1]
        root = parts[0]
        if root == "dram":
            if len(parts) >= 2 and parts[-2].startswith("bank"):
                banks.setdefault(parts[-2], {})[leaf] = int(value)
            elif leaf in dram:
                dram[leaf] += int(value)
        elif root == "noc" and leaf.startswith("stall_") and leaf.endswith("_cycles"):
            ch = leaf[len("stall_") : -len("_cycles")]
            noc_stalls[ch] = noc_stalls.get(ch, 0) + int(value)
        elif root in tlp and leaf in _TLP_STALL_KEYS:
            tlp[root][leaf] += int(value)

    accesses = dram["row_hits"] + dram["row_misses"]
    cols = dram["read_cols"] + dram["write_cols"]
    out = {
        "cycles": cycles,
        "dram": {
            **dram,
            "bus_utilization": dram["bus_cycles"] / cycles if cycles else 0.0,
            "row_hit_rate": dram["row_hits"] / accesses if accesses else 0.0,
            "mean_queue_wait": dram["queue_wait_cycles"] / cols if cols else 0.0,
            "banks": {k: banks[k] for k in sorted(banks)},
        },
        "noc": {
            "stall_cycles": {k: noc_stalls[k] for k in sorted(noc_stalls)},
            "stall_cycles_total": sum(noc_stalls.values()),
        },
        "tlp": tlp,
    }
    return out


def dram_service_split(
    contention: Dict[str, Any], timing
) -> Dict[str, Dict[str, float]]:
    """Report-level split of DRAM service time by row-buffer outcome.

    Uses the controller's column/activation counters and a
    :class:`~repro.dram.timing.DramTiming`: column data transfer is
    ``bus_cycles``, each activation pays ``t_rcd``, each row conflict adds a
    ``t_rp`` precharge, each direction turnaround ``t_bus_turn`` and each
    refresh ``t_rfc``.  Shares are of the summed model, not of wall-clock —
    banks overlap these costs in time.
    """
    dram = contention["dram"]
    parts = {
        "column_transfer": float(dram["bus_cycles"]),
        "activate": float(dram["activations"] * timing.t_rcd),
        "precharge": float(dram["row_conflicts"] * timing.t_rp),
        "turnaround": float(dram["turnarounds"] * timing.t_bus_turn),
        "refresh": float(dram["refreshes"] * timing.t_rfc),
    }
    total = sum(parts.values())
    return {
        name: {"cycles": v, "share": v / total if total else 0.0}
        for name, v in parts.items()
    }


# ------------------------------------------------------------------ reports
def attribution_report(
    tracer: Optional[Tracer] = None,
    monitors: Iterable = (),
    registry=None,
    cycles: int = 0,
    timing=None,
    by_tenant: bool = False,
) -> Dict[str, Any]:
    """The full attribution rollup, JSON-serialisable.

    Combines per-command critical paths, segment totals/shares, the grouped
    bottleneck verdict and the contention summary.  ``timing`` (a
    :class:`~repro.dram.timing.DramTiming`) additionally enables the DRAM
    service split by row outcome.  ``by_tenant=True`` adds a ``tenants`` key
    with the same segment taxonomy rolled up per serving-layer tenant tag.
    """
    paths = extract_command_paths(tracer, monitors)
    metrics = registry.dump() if registry is not None else {}
    contention = contention_summary(metrics, cycles)
    report: Dict[str, Any] = {**_rollup(paths), "contention": contention}
    if timing is not None:
        report["dram_service_split"] = dram_service_split(contention, timing)
    if by_tenant:
        report["tenants"] = tenant_rollup(paths)
    return report


def render_attribution_report(report: Dict[str, Any]) -> str:
    """Human rendering of :func:`attribution_report`."""
    n = report["commands"]
    lines = [
        f"attribution: {n} command(s), "
        f"mean latency {report['mean_latency_cycles']:.1f} cycles"
    ]
    if not n:
        lines.append("  (no closed command spans — is tracing enabled?)")
        return "\n".join(lines)
    lines.append("  critical-path segments (mean cycles per command, share):")
    for seg in SEGMENTS:
        s = report["segments"][seg]
        if not s["cycles"]:
            continue
        lines.append(
            f"    {seg:<18} {s['cycles'] / n:>10.1f}  {s['share']:>6.1%}"
        )
    bn = report["bottleneck"]
    if bn is not None:
        share = report["groups"][bn]["share"]
        lines.append(f"  bottleneck: {bn}-bound ({share:.0%} of mean critical path)")
    dram = report["contention"]["dram"]
    if dram["bus_cycles"]:
        lines.append(
            f"  dram: bus utilization {dram['bus_utilization']:.1%}, "
            f"row-hit rate {dram['row_hit_rate']:.1%}, "
            f"mean queue wait {dram['mean_queue_wait']:.1f} cycles, "
            f"{dram['row_conflicts']} row conflict(s)"
        )
    split = report.get("dram_service_split")
    if split:
        shown = ", ".join(
            f"{k} {v['share']:.0%}" for k, v in split.items() if v["cycles"]
        )
        if shown:
            lines.append(f"  dram service split: {shown}")
    noc = report["contention"]["noc"]
    if noc["stall_cycles_total"]:
        per = ", ".join(
            f"{ch}={c}" for ch, c in noc["stall_cycles"].items() if c
        )
        lines.append(f"  noc stall-on-full cycles: {per}")
    for engine in ("reader", "writer"):
        stalls = report["contention"]["tlp"][engine]
        total = sum(stalls.values())
        if total:
            per = ", ".join(
                f"{k[len('stall_'):-len('_cycles')]}={v}"
                for k, v in stalls.items()
                if v
            )
            lines.append(f"  {engine} TLP stalls: {per}")
    return "\n".join(lines)


def counter_track_events(monitors: Iterable) -> List[Dict[str, Any]]:
    """Perfetto counter tracks: outstanding DDR bursts over time, per kind.

    Emits Chrome trace-event ``"C"`` phase events derived from the monitors'
    issue/complete cycles; merged into the span trace via ``chrome_trace``'s
    ``extra_events`` so the Perfetto timeline shows queue pressure alongside
    the command spans.
    """
    from repro.obs.export import PID

    events: List[Dict[str, Any]] = []
    for monitor in monitors:
        for kind in ("read", "write"):
            deltas: Dict[int, int] = {}
            for rec in monitor.records:
                if rec.kind != kind or rec.complete_cycle is None:
                    continue
                deltas[rec.issue_cycle] = deltas.get(rec.issue_cycle, 0) + 1
                deltas[rec.complete_cycle] = deltas.get(rec.complete_cycle, 0) - 1
            if not deltas:
                continue
            name = f"ddr {kind} outstanding ({monitor.port_name})"
            value = 0
            for cycle in sorted(deltas):
                value += deltas[cycle]
                events.append(
                    {
                        "name": name,
                        "cat": "counter",
                        "ph": "C",
                        "ts": cycle,
                        "pid": PID,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
    return events
