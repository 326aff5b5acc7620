"""Per-component wall-clock self-time reporting for the simulation kernel.

The simulator (constructed with ``profile=True``) times every component's
``tick`` individually and books the channel-commit sweep under
``(kernel)/commit``, so the report cleanly separates model cost from kernel
overhead.  The profile is *skip-aware*: ticks the compiled schedule elides
never run, so their absence from the call counts is exactly the speedup
event-skipping bought — the report shows calls alongside simulated cycles
to make that visible.
"""

from __future__ import annotations

from typing import Dict, List


def profile_summary(sim) -> List[Dict[str, float]]:
    """Per-component self-time rows, sorted by total time descending.

    Each row: ``name``, ``total_ns``, ``calls``, ``mean_ns`` (per call), and
    ``share`` of the summed profiled time.
    """
    rows = []
    grand_total = sum(ns for ns, _ in sim.tick_profile.values()) or 1
    for name, (ns, calls) in sim.tick_profile.items():
        rows.append(
            {
                "name": name,
                "total_ns": ns,
                "calls": calls,
                "mean_ns": ns / calls if calls else 0.0,
                "share": ns / grand_total,
            }
        )
    rows.sort(key=lambda r: r["total_ns"], reverse=True)
    return rows


def render_profile_report(sim) -> str:
    """Human-readable profile table, one row per profiled component;
    companion to ``render_skip_report``.

    Raises nothing on an unprofiled simulator — it simply reports that no
    samples were collected.
    """
    rows = profile_summary(sim)
    if not rows:
        return (
            f"sim {sim.name!r}: no profile samples "
            "(construct the Simulator with profile=True)"
        )
    lines = [
        f"sim {sim.name!r} self-time profile "
        f"({sim.cycle} cycles simulated, {sim.cycle - sim.cycles_skipped} stepped):",
        f"{'component':<42} {'total ms':>10} {'calls':>10} {'ns/call':>9} {'share':>7}",
    ]
    for r in rows:
        lines.append(
            f"{r['name']:<42} {r['total_ns'] / 1e6:>10.3f} {r['calls']:>10} "
            f"{r['mean_ns']:>9.0f} {r['share']:>6.1%}"
        )
    return "\n".join(lines)
