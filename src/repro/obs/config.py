"""The single switch for the instrumentation layer.

``Observability`` is the one object a caller hands to
:class:`~repro.core.build.BeethovenBuild` (or
:class:`~repro.core.elaboration.ElaboratedDesign`) to control every part of
the layer at once.  Metric collection is always on (the registry is cheap
enough to keep enabled).  A build given no config uses
``Observability()``: span tracing on, the wall-clock profiler off.
``Observability.off()`` turns span tracing off too (metrics only),
``profile=True`` turns the profiler on, and ``max_events`` caps the
tracer's event and span stores; a partial config such as
``Observability(max_events=N)`` keeps every other default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Observability:
    """Configuration for the unified instrumentation layer.

    ``enabled``
        Master switch for span tracing and command-lifetime tracking.  Flat
        metrics are collected regardless (they ride on fields the models keep
        anyway); this gates the per-command span machinery and exporters.
    ``profile``
        Turn on the simulator's per-component wall-clock self-time profiler
        (:func:`repro.obs.profiler.render_profile_report`).  Off unless
        asked for.
    ``max_events``
        Optional ring-buffer cap shared by the tracer's event and span
        stores; evictions are surfaced as ``trace/dropped_events`` /
        ``trace/dropped_spans`` metrics.
    """

    enabled: bool = True
    profile: bool = False
    max_events: Optional[int] = None

    @classmethod
    def off(cls) -> "Observability":
        """Metrics only: no span tracking, no profiler.  Not the default,
        which keeps span tracking on."""
        return cls(enabled=False)
