"""Unified instrumentation layer: metrics, command spans, exporters, profiler.

See DESIGN.md ("Observability") for the namespace scheme and span model.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "BoundMetric": "repro.obs.registry",
    "CommandPath": "repro.obs.attribution",
    "CommandSpanTracker": "repro.obs.spans",
    "DEFAULT_BUCKETS": "repro.obs.registry",
    "DEFAULT_PERCENTILES": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "MetricRegistry": "repro.obs.registry",
    "MetricScope": "repro.obs.registry",
    "Observability": "repro.obs.config",
    "SEGMENTS": "repro.obs.attribution",
    "TraceTruncationWarning": "repro.obs.export",
    "attribution_report": "repro.obs.attribution",
    "chrome_trace": "repro.obs.export",
    "chrome_trace_events": "repro.obs.export",
    "contention_summary": "repro.obs.attribution",
    "counter_track_events": "repro.obs.attribution",
    "export_chrome_trace": "repro.obs.export",
    "export_metrics": "repro.obs.export",
    "extract_command_paths": "repro.obs.attribution",
    "profile_summary": "repro.obs.profiler",
    "render_attribution_report": "repro.obs.attribution",
    "render_profile_report": "repro.obs.profiler",
    "segment_totals": "repro.obs.attribution",
    "tenant_rollup": "repro.obs.attribution",
    "validate_chrome_trace": "repro.obs.export",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
