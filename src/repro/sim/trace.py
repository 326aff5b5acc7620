"""Span tracing for simulations, plus the kernel's run reports.

The tracer stores :class:`Span` records — named intervals with parent
links, used by the observability layer to reconstruct one host command's
full lifetime (enqueue -> dispatch -> execute -> AXI bursts -> response) and
exported as Chrome/Perfetto ``trace_event`` JSON by :mod:`repro.obs.export`.
AXI bursts themselves are kept by :class:`repro.axi.monitor.AxiMonitor`,
whose records the Figure-5 timelines read.

Long traced runs stay bounded: construct the tracer with ``max_events`` and
the span log becomes a ring buffer; evictions are counted in
``dropped_spans``, which the simulator exposes as a metric.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    """A named interval on a track, with an optional parent span.

    ``track`` is a display grouping (``"Memcpy/core0"``); ``parent`` links a
    child (an AXI burst) to the enclosing interval (the host command) so the
    full command tree is reconstructible even when siblings overlap.
    """

    span_id: int
    name: str
    track: str
    begin_cycle: int
    end_cycle: Optional[int] = None
    parent: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[int]:
        if self.end_cycle is None:
            return None
        return self.end_cycle - self.begin_cycle


@dataclass
class Tracer:
    """Collects :class:`Span` records during a run.

    ``max_events`` (optional) caps the span log with ring-buffer semantics so
    tracing can stay enabled on arbitrarily long runs; the number of evicted
    spans is kept in ``dropped_spans``.
    """

    _state = ("dropped_spans", "span_log", "_open_spans", "_next_span_id")

    max_events: Optional[int] = None
    dropped_spans: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.span_log: Any = (
            deque(maxlen=self.max_events) if self.max_events is not None else []
        )
        self._open_spans: Dict[int, Span] = {}
        self._next_span_id = 1

    def begin_span(
        self,
        cycle: int,
        track: str,
        name: str,
        parent: Optional[int] = None,
        **args: Any,
    ) -> int:
        """Open a span; returns its id (ids start at 1)."""
        span_id = self._next_span_id
        self._next_span_id += 1
        span = Span(span_id, name, track, cycle, parent=parent, args=args)
        if self.max_events is not None and len(self.span_log) == self.max_events:
            evicted = self.span_log[0]
            self._open_spans.pop(evicted.span_id, None)
            self.dropped_spans += 1
        self.span_log.append(span)
        self._open_spans[span_id] = span
        return span_id

    def end_span(self, span_id: int, cycle: int, **args: Any) -> None:
        span = self._open_spans.pop(span_id, None)
        if span is None:
            return  # evicted span, or double end
        span.end_cycle = cycle
        if args:
            span.args.update(args)

    def closed_spans(self) -> List[Span]:
        return [s for s in self.span_log if s.end_cycle is not None]

    def children_of(self, span_id: int) -> List[Span]:
        return [s for s in self.span_log if s.parent == span_id]


def skip_summary(sim) -> Dict[str, float]:
    """Event-skipping counters of a :class:`~repro.sim.Simulator` run.

    ``cycles_total`` counts simulated time, ``cycles_stepped`` the cycles the
    kernel actually ticked; their ratio is the upper bound on the wall-clock
    speedup event-skipping bought.  All counters are exact under either
    schedule (they are simply zero under naive).
    """
    stepped = sim.cycle - sim.cycles_skipped
    return {
        "cycles_total": sim.cycle,
        "cycles_stepped": stepped,
        "cycles_skipped": sim.cycles_skipped,
        "skip_events": sim.skip_events,
        "skip_fraction": sim.cycles_skipped / sim.cycle if sim.cycle else 0.0,
        "mean_skip_length": (
            sim.cycles_skipped / sim.skip_events if sim.skip_events else 0.0
        ),
    }


def render_skip_report(sim) -> str:
    """One-line human summary of :func:`skip_summary` for benchmark output,
    plus the run entries and the slots the entry rule woke."""
    s = skip_summary(sim)
    return (
        f"sim {sim.name!r}: {s['cycles_total']:.0f} cycles simulated, "
        f"{s['cycles_stepped']:.0f} stepped / {s['cycles_skipped']:.0f} skipped "
        f"({s['skip_fraction']:.1%}) in {s['skip_events']:.0f} jumps "
        f"(mean {s['mean_skip_length']:.1f} cycles); "
        f"{sim.run_entries} run entries, {sim.entry_wakes} entry wakes"
    )


def render_deadlock_report(dump: Dict[str, Any]) -> str:
    """Human rendering of a :meth:`~repro.sim.Simulator.state_dump`.

    The busiest channels first (they are usually the smoking gun — a full
    queue nobody drains), then each component's own debug state, then the
    compiled scheduler's wake heap; each list shows at most 16 rows.
    """
    top = 16
    lines = [
        f"deadlock state of sim {dump.get('sim')!r} at cycle {dump.get('cycle')} "
        f"({dump.get('scheduling')} scheduling)"
    ]
    channels = dump.get("channels", {})
    if channels:
        rows = sorted(
            channels.items(),
            key=lambda kv: -(kv[1]["occupancy"] + kv[1]["staged"]),
        )
        shown = rows[:top]
        width = max(len(name) for name, _ in shown)
        lines.append(f"  {len(channels)} channel(s) holding items:")
        for name, c in shown:
            lines.append(
                f"    {name:<{width}} occupancy {c['occupancy']}/{c['capacity']}"
                f" staged {c['staged']} pending_pops {c['pending_pops']}"
            )
        if len(rows) > len(shown):
            lines.append(f"    ... {len(rows) - len(shown)} more")
    else:
        lines.append("  all channels empty")
    components = dump.get("components", {})
    comp_rows = list(components.items())
    shown_comps = comp_rows[:top]
    for name, state in shown_comps:
        body = ", ".join(f"{k}={v!r}" for k, v in state.items())
        lines.append(f"  {name}: {body}")
    if len(comp_rows) > len(shown_comps):
        lines.append(
            f"  ... {len(comp_rows) - len(shown_comps)} more component(s) elided"
        )
    heap = dump.get("wake_heap")
    if heap is not None:
        if heap:
            entries = ", ".join(f"{name}@{cyc}" for cyc, name in heap[:top])
            lines.append(f"  wake heap ({len(heap)}): {entries}")
        else:
            lines.append("  wake heap: empty")
    woken = dump.get("woken")
    if woken:
        lines.append(f"  woken now: {', '.join(woken)}")
    return "\n".join(lines)


def compact_state_dump(
    dump: Dict[str, Any],
    max_channels: int = 64,
    max_components: int = 64,
    max_value_chars: int = 400,
) -> Dict[str, Any]:
    """Bound a :meth:`~repro.sim.Simulator.state_dump` for exception payloads.

    Large configs (64 cores across 4 dies) produce dumps whose repr runs to
    megabytes; errors carry a capped copy instead — the busiest channels and
    the first components, with elision counts so nothing disappears silently.
    Values whose repr exceeds ``max_value_chars`` are truncated in place.
    """

    def clip(value: Any) -> Any:
        text = repr(value)
        if len(text) <= max_value_chars:
            return value
        return text[:max_value_chars] + f"... <{len(text) - max_value_chars} chars elided>"

    out = dict(dump)
    channels = dump.get("channels", {})
    if len(channels) > max_channels:
        rows = sorted(
            channels.items(), key=lambda kv: -(kv[1]["occupancy"] + kv[1]["staged"])
        )
        out["channels"] = dict(rows[:max_channels])
        out["channels_elided"] = len(channels) - max_channels
    components = dump.get("components", {})
    capped = {}
    for i, (name, state) in enumerate(components.items()):
        if i >= max_components:
            out["components_elided"] = len(components) - max_components
            break
        capped[name] = {k: clip(v) for k, v in state.items()}
    out["components"] = capped
    heap = dump.get("wake_heap")
    if heap is not None and len(heap) > max_channels:
        out["wake_heap"] = heap[:max_channels]
        out["wake_heap_elided"] = len(heap) - max_channels
    return out


def export_state_dump(dump: Dict[str, Any], path: str) -> None:
    """Write a state dump as JSON (non-serialisable leaves become reprs)."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh, indent=2, sort_keys=True, default=repr)


def wake_summary(sim) -> Dict[str, Dict[str, float]]:
    """Per-component tick accounting of a :class:`~repro.sim.Simulator` run.

    For each component: ``ticks_executed`` (cycles its ``tick`` actually
    ran), ``ticks_elided`` (cycles the scheduler proved it a no-op and
    skipped it) and ``tick_fraction`` (executed / simulated cycles).  Under
    the compiled schedule the counts are exact per component; under naive
    every component shares the stepped-cycle count.  The
    dict is keyed by component name in registration order;
    :func:`class_tick_table` rolls it up by class.
    """
    total = sim.cycle
    out: Dict[str, Dict[str, float]] = {}
    for comp in sim._components:
        executed = sim.component_ticks(comp)
        out[comp.name] = {
            "ticks_executed": executed,
            "ticks_elided": total - executed,
            "tick_fraction": executed / total if total else 0.0,
        }
    return out


def class_tick_table(sim) -> Dict[str, Dict[str, float]]:
    """:func:`wake_summary` rolled up by component class, busiest first.

    Per class: ``instances``, ``ticks_executed``, ``ticks_elided`` (the two
    sum to ``instances * sim.cycle``), ``elided_fraction``, and executed
    ticks per unit of useful work: ``ticks_per_dram_col`` — per DRAM column
    the run moved (``read_cols + write_cols`` over every controller in the
    registry) — and ``ticks_per_command`` — per host command the runtime
    server sent (``runtime/server/commands_sent``); each is 0.0 when the run
    did none of that work.  Which class costs what is then read, not
    guessed: host seconds follow executed ticks.

    When the simulator was profiled (``sim.tick_profile`` has samples),
    each class also gets ``us_per_tick`` — its profiled self-time over its
    executed ticks — and a last row, ``(kernel)/commit``, books the channel
    commit sweeps as its ticks (``instances`` 0).
    """
    total = sim.cycle
    registry = sim.registry
    cols = sum(
        registry.value(name)
        for name in registry.names("dram")
        if name.endswith(("/read_cols", "/write_cols"))
    )
    commands = registry.value("runtime/server/commands_sent")
    profile = sim.tick_profile
    table: Dict[str, Dict[str, float]] = {}
    self_ns: Dict[str, float] = {}
    for comp in sim._components:
        name = type(comp).__name__
        row = table.setdefault(name, {"instances": 0, "ticks_executed": 0, "ticks_elided": 0})
        executed = sim.component_ticks(comp)
        row["instances"] += 1
        row["ticks_executed"] += executed
        row["ticks_elided"] += total - executed
        if profile:
            self_ns[name] = self_ns.get(name, 0) + profile.get(comp.name, (0, 0))[0]
    table = dict(sorted(table.items(), key=lambda kv: kv[1]["ticks_executed"], reverse=True))
    commit = profile.get("(kernel)/commit")
    if commit:
        table["(kernel)/commit"] = {"instances": 0, "ticks_executed": commit[1], "ticks_elided": 0}
        self_ns["(kernel)/commit"] = commit[0]
    for name, row in table.items():
        possible = row["instances"] * total
        executed = row["ticks_executed"]
        row["elided_fraction"] = row["ticks_elided"] / possible if possible else 0.0
        row["ticks_per_dram_col"] = executed / cols if cols else 0.0
        row["ticks_per_command"] = executed / commands if commands else 0.0
        if profile:
            row["us_per_tick"] = self_ns[name] / executed / 1e3 if executed else 0.0
    return table


def render_class_tick_table(table: Dict[str, Dict[str, float]]) -> str:
    """Text form of a :func:`class_tick_table` result, one row per class.

    Shows the ticks-per-work columns whose denominator the run actually
    moved (DRAM columns, host commands); ``ticks/col`` alone when neither.
    A profiled table adds ``us/tick``.
    """
    per_work = [
        (key, title)
        for key, title in (("ticks_per_dram_col", "ticks/col"), ("ticks_per_command", "ticks/cmd"))
        if any(row[key] for row in table.values())
    ] or [("ticks_per_dram_col", "ticks/col")]
    if any("us_per_tick" in row for row in table.values()):
        per_work.append(("us_per_tick", "us/tick"))
    width = max((len(name) for name in table), default=5)
    lines = [
        f"  {'class':<{width}} {'inst':>5} {'ticks':>10} {'elided':>7}"
        + "".join(f" {title:>10}" for _, title in per_work)
    ]
    for name, row in table.items():
        lines.append(
            f"  {name:<{width}} {row['instances']:>5} {row['ticks_executed']:>10.0f} "
            f"{row['elided_fraction']:>7.1%}"
            + "".join(f" {row[key]:>10.3f}" for key, _ in per_work)
        )
    return "\n".join(lines)
