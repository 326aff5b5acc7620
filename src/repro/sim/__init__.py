"""Cycle-level simulation kernel used by every Beethoven substrate model."""

from repro._lazy import lazy_exports

_LAZY = {
    "ChannelQueue": "repro.sim.kernel",
    "CompiledProgram": "repro.sim.compiled",
    "Component": "repro.sim.kernel",
    "DEFAULT_SCHEDULING": "repro.sim.kernel",
    "DeadlockError": "repro.sim.kernel",
    "NEVER": "repro.sim.kernel",
    "SCHEDULING_MODES": "repro.sim.kernel",
    "SimulationError": "repro.sim.kernel",
    "Simulator": "repro.sim.kernel",
    "Span": "repro.sim.trace",
    "Tracer": "repro.sim.trace",
    "class_tick_table": "repro.sim.trace",
    "compact_state_dump": "repro.sim.trace",
    "export_state_dump": "repro.sim.trace",
    "render_class_tick_table": "repro.sim.trace",
    "render_deadlock_report": "repro.sim.trace",
    "render_skip_report": "repro.sim.trace",
    "render_wake_report": "repro.sim.trace",
    "skip_summary": "repro.sim.trace",
    "wake_summary": "repro.sim.trace",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
