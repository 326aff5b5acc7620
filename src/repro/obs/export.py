"""Exporters: Chrome/Perfetto ``trace_event`` JSON and flat metric dumps.

The trace format is the Chrome trace-event JSON the Perfetto UI
(``ui.perfetto.dev``) and ``chrome://tracing`` both load: a
``{"traceEvents": [...]}`` object of ``"X"`` (complete) events with
microsecond timestamps.  We map one simulated cycle to one microsecond so
cycle arithmetic survives the round trip exactly.

Two sources feed the trace:

* closed :class:`~repro.sim.trace.Span` records (host-command lifecycles and
  their AXI-burst children, stitched by
  :class:`~repro.obs.spans.CommandSpanTracker`);
* the AXI monitor's :class:`~repro.axi.monitor.TxnRecord` list (every burst
  seen at the DDR boundary, whether or not a command claimed it).

Chrome's renderer nests same-thread ``"X"`` slices by containment, which
breaks when two bursts on one track merely *overlap*; the exporter therefore
runs a greedy interval colouring per track and spreads overlapping spans
across numbered lanes (one ``tid`` per lane), while true parent/child links
are preserved in ``args.parent``/``args.span_id``.
"""

from __future__ import annotations

import json
import warnings
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.sim.trace import Span, Tracer

#: One simulated cycle maps to one microsecond of trace time.
PID = 1


class TraceTruncationWarning(UserWarning):
    """The tracer's ring buffer wrapped: the exported trace is incomplete."""


def _assign_lanes(spans: Sequence[Span]) -> Dict[int, int]:
    """Greedy interval colouring: span_id -> lane, minimising lane count."""
    lanes: List[int] = []  # lane index -> end cycle of its last span
    out: Dict[int, int] = {}
    for span in sorted(spans, key=lambda s: (s.begin_cycle, s.end_cycle or 0)):
        end = span.end_cycle if span.end_cycle is not None else span.begin_cycle
        for i, busy_until in enumerate(lanes):
            if span.begin_cycle >= busy_until:
                lanes[i] = end
                out[span.span_id] = i
                break
        else:
            lanes.append(end)
            out[span.span_id] = len(lanes) - 1
    return out


def chrome_trace_events(
    tracer: Optional[Tracer] = None,
    monitors: Iterable = (),
    extra_events: Sequence[Dict[str, Any]] = (),
) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list from spans and AXI monitor records."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID,
            "tid": 0,
            "args": {"name": "beethoven-sim"},
        }
    ]
    next_tid = 1
    thread_names: List = []  # (tid, display name)

    def add_track(display: str, spans: Sequence[Span]) -> None:
        nonlocal next_tid
        if not spans:
            return
        lane_of = _assign_lanes(spans)
        lane_tids: Dict[int, int] = {}
        for span in spans:
            lane = lane_of[span.span_id]
            tid = lane_tids.get(lane)
            if tid is None:
                tid = next_tid
                next_tid += 1
                lane_tids[lane] = tid
                thread_names.append(
                    (tid, display if lane == 0 else f"{display} #{lane + 1}")
                )
            args = dict(span.args)
            args["span_id"] = span.span_id
            if span.parent is not None:
                args["parent"] = span.parent
            events.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": span.begin_cycle,
                    "dur": max(span.duration or 0, 0),
                    "pid": PID,
                    "tid": tid,
                    "args": args,
                }
            )

    if tracer is not None:
        by_track: Dict[str, List[Span]] = {}
        for span in tracer.closed_spans():
            by_track.setdefault(span.track, []).append(span)
        for track in sorted(by_track):
            add_track(track, by_track[track])

    for monitor in monitors:
        recs = monitor.completed()
        if not recs:
            continue
        # Re-use the span lane machinery by viewing records as pseudo-spans.
        pseudo = [
            Span(
                span_id=i + 1,
                name=f"{rec.kind} burst",
                track=f"axi/{monitor.port_name}",
                begin_cycle=rec.issue_cycle,
                end_cycle=rec.complete_cycle,
                args={
                    "axi_id": rec.axi_id,
                    "addr": rec.addr,
                    "beats": rec.length,
                    "first_data_cycle": rec.first_data_cycle,
                },
            )
            for i, rec in enumerate(recs)
        ]
        add_track(f"axi/{monitor.port_name}", pseudo)

    events.extend(extra_events)

    for tid, display in thread_names:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID,
                "tid": tid,
                "args": {"name": display},
            }
        )
    return events


def chrome_trace(
    tracer: Optional[Tracer] = None,
    monitors: Iterable = (),
    extra_events: Sequence[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    other: Dict[str, Any] = {"clock": "1 cycle = 1us"}
    if tracer is not None and tracer.dropped_spans:
        # Never let a wrapped ring buffer masquerade as a complete trace.
        other["dropped_spans"] = tracer.dropped_spans
        warnings.warn(
            f"trace ring buffer wrapped: {tracer.dropped_spans} span(s) dropped; "
            "exported trace is incomplete (raise Observability.max_events)",
            TraceTruncationWarning,
            stacklevel=2,
        )
    return {
        "traceEvents": chrome_trace_events(tracer, monitors, extra_events),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def export_chrome_trace(
    path: str,
    tracer: Optional[Tracer] = None,
    monitors: Iterable = (),
    extra_events: Sequence[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Write a Perfetto-loadable trace JSON file; returns the trace object."""
    trace = chrome_trace(tracer, monitors, extra_events)
    with open(path, "w") as f:
        json.dump(trace, f)
    return trace


def validate_chrome_trace(trace: Any) -> List[str]:
    """Structural validation against the Chrome trace-event JSON schema.

    Returns a list of problems (empty = valid): well-formedness of the
    container, required fields per phase, non-negative integer timestamps
    and durations, and ``ts + dur`` plausibility.
    """
    problems: List[str] = []
    if isinstance(trace, dict):
        events = trace.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object lacks a 'traceEvents' list"]
    elif isinstance(trace, list):
        events = trace
    else:
        return ["trace must be a JSON object or array"]

    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing phase 'ph'")
            continue
        if "name" not in ev:
            problems.append(f"{where}: missing 'name'")
        if ph == "M":
            continue  # metadata events carry no timestamps
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad 'ts' {ts!r}")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad 'dur' {dur!r}")
    return problems


def export_metrics(path: str, registry, prefix: Optional[str] = None) -> Dict[str, Any]:
    """Write the registry's flat metric dump as JSON; returns the dump."""
    dump = registry.dump(prefix)
    with open(path, "w") as f:
        json.dump(dump, f, indent=2, sort_keys=True, default=float)
    return dump
