"""The benchmark's vocabulary: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is the driver-facing copy of these
tables (``smoke_test.py`` checks the two agree); the ``moves`` text, which
that file's schema has no key for, lives here and in ``README.md``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

WORKLOADS: Dict[str, str] = {
    "dense_stream": (
        "32-core memcpy, every core streaming: the simulator's busy path "
        "(dispatch, commit, dram, noc, memory); nothing can be elided"
    ),
    "sparse_stream": (
        "same 32-core design, one active core: ~90% of component-ticks are "
        "elidable, so wake-set and elision cost dominates"
    ),
    "host_dma": (
        "4-core vecadd behind the PCIe DMA model: nearly all host time is "
        "the runtime stepping idle DMA cycles (ROADMAP 1b)"
    ),
    "serve_mix": (
        "multi-tenant serving on delay cores: host-path layers (serve, "
        "runtime server, command router) work, dram/noc/memory idle"
    ),
    "compose_sweep": (
        "the composer itself: fig6 and core-count sweeps through the farm "
        "cold then warm, then a heterogeneous synthesis build and emit"
    ),
    "checkpoint_chunks": (
        "32-core memcpy checkpointed every chunk and restored three times: "
        "snapshot capture/save/load/restore dominate (ROADMAP 4b/c)"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    exact: bool
    meaning: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("host_cpu_s", "s", "lower", 0.18, False,
             "child user+sys CPU seconds for one whole run (interpreter start, "
             "import, elaborate, host setup/DMA, simulate, read back, verify), "
             "at reference host speed"),
    EndToEnd("setup_s", "s", "lower", 0.25, False,
             "leading part of host_cpu_s: interpreter start until the first "
             "host operation can be issued"),
    EndToEnd("sim_kcycles_per_s", "kcycles/s", "higher", 0.18, False,
             "sim_cycles / host_cpu_s / 1000"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, False,
             "child peak resident set"),
    EndToEnd("sim_cycles", "cycles", "lower", 0.001, True,
             "simulated cycles to complete the workload (simulated time)"),
    EndToEnd("cmd_p50_cycles", "cycles", "lower", 0.001, True,
             "median per-command simulated latency"),
    EndToEnd("cmd_p99_cycles", "cycles", "lower", 0.001, True,
             "p99 per-command simulated latency (nearest rank; a real tail "
             "only on serve_mix, the one workload with >= 1000 commands)"),
]

#: Spans the benchmark records around its calls into the program.
SPANS: Dict[str, str] = {
    "core.build": "BeethovenBuild(...) elaboration",
    "core.emit": "emit_verilog / emit_cpp_header / emit_constraints / summary",
    "runtime.handle_init": "FpgaHandle(design)",
    "runtime.dma_in": "copy_to_fpga",
    "runtime.dma_out": "copy_from_fpga",
    "runtime.call": "FpgaHandle.call (command submission)",
    "runtime.get": "ResponseHandle.get, i.e. simulation until the response",
    "sim.run": "Simulator.run driven directly (checkpoint chunks)",
    "serve.run": "AcceleratorService + LoadGenerator.run",
    "snapshot.capture": "snapshot.capture(handle)",
    "snapshot.save": "snapshot.save(snap, path)",
    "snapshot.load": "snapshot.load(path)",
    "snapshot.restore": "snapshot.restore(handle, snap)",
    "farm.cold": "fig6_all + sweep_cores through an empty farm cache",
    "farm.warm": "the same jobs served from the farm cache",
    "dse.frontier": "bisect sweep_cores + frontier, no farm",
    "obs.metrics_dump": "build.metrics(...) dumps",
    "bench.verify": "the benchmark's own output checking (discount it)",
}

#: ``src/repro/<module>`` names the sampler reports; the rest is ``other``.
MODULES = (
    "sim", "dram", "noc", "axi", "memory", "command", "runtime", "core",
    "fpga", "asic", "hdl", "codegen", "obs", "serve", "snapshot", "farm",
    "kernels", "baselines", "faults", "platforms", "other",
)

#: Exact model counters read after the run (name -> unit).
COUNTERS: Dict[str, str] = {
    "sim.executed_ticks": "count",
    "sim.elided_tick_frac": "frac",
    "sim.cycles_stepped": "cycles",
    "sim.cycles_skipped": "cycles",
    "sim.skip_events": "count",
    "sim.n_components": "count",
    "sim.n_channels": "count",
    "dram.read_cols": "count",
    "dram.write_cols": "count",
    "dram.row_hit_rate": "frac",
    "dram.bus_util": "frac",
    "dram.queue_wait_cycles": "cycles",
    "dram.row_conflicts": "count",
    "noc.stall_cycles": "cycles",
    "runtime.dma_cycles": "cycles",
    "runtime.commands_sent": "count",
    "runtime.lock_wait_cycles": "cycles",
    "runtime.busy_cycles": "cycles",
    "command.commands_routed": "count",
    "serve.completed": "count",
    "serve.rejected": "count",
    "serve.jain": "frac",
    "serve.goodput_per_mcycle": "1/Mcycle",
    "serve.batch_lock_skips": "count",
    "farm.jobs": "count",
    "farm.cache_hit_frac": "frac",
    "snapshot.bytes": "bytes",
    "core.n_builds": "count",
}

#: Host time per simulated event (name -> unit).
COSTS: Dict[str, str] = {
    "sim.us_per_tick": "us",
    "runtime.us_per_dma_cycle": "us",
    "snapshot.ms_per_capture": "ms",
    "snapshot.ms_per_restore": "ms",
    "core.ms_per_build": "ms",
    "serve.us_per_command": "us",
}

_HIGHER = {
    "sim.elided_tick_frac", "sim.cycles_skipped", "dram.row_hit_rate",
    "serve.completed", "serve.jain", "serve.goodput_per_mcycle",
    "serve.batch_lock_skips", "farm.cache_hit_frac", "trace.samples",
}

_DENSE = "host_cpu_s, sim_kcycles_per_s on dense_stream; flat on host_dma, compose_sweep"
_SPARSE = "host_cpu_s on sparse_stream, serve_mix; a dispatch change must not lower it there"
_DMA = "host_cpu_s on host_dma (>=85% share); second-order on dense_stream, checkpoint_chunks"
_SERVE = "host_cpu_s on serve_mix"
_SERVE_GUARD = "guard on serve_mix: a faster pump must not change decisions"
_COMPOSE = "host_cpu_s on compose_sweep; setup_s everywhere"
_WARM = "host_cpu_s on compose_sweep, warm half only"
_SNAP = "host_cpu_s, peak_rss_mb on checkpoint_chunks; flat elsewhere"
_MODEL = "exact: a change means the modelled machine changed"

#: Which end-to-end metric each per-layer metric should move, and where.
MOVES: Dict[str, str] = {
    "sim.self_s": _DENSE + "; also sparse_stream, serve_mix",
    "dram.self_s": _DENSE, "noc.self_s": _DENSE, "memory.self_s": _DENSE,
    "runtime.get.s": _DENSE, "sim.us_per_tick": _DENSE,
    "sim.elided_tick_frac": _SPARSE, "sim.cycles_skipped": _SPARSE,
    "runtime.dma_in.s": _DMA, "runtime.dma_out.s": _DMA,
    "runtime.us_per_dma_cycle": _DMA,
    "runtime.dma_cycles": _MODEL + " (with sim_cycles on host_dma)",
    "serve.self_s": _SERVE, "runtime.self_s": _SERVE + ", host_dma",
    "command.self_s": _SERVE, "runtime.call.s": _SERVE + " (bench-issued commands only)",
    "serve.run.s": _SERVE, "serve.us_per_command": _SERVE,
    "serve.jain": _SERVE_GUARD, "serve.rejected": _SERVE_GUARD,
    "serve.completed": _SERVE_GUARD,
    "core.build.s": _COMPOSE, "core.self_s": _COMPOSE, "obs.self_s": _COMPOSE,
    "fpga.self_s": _COMPOSE, "core.ms_per_build": _COMPOSE,
    "core.emit.s": "host_cpu_s on compose_sweep",
    "hdl.self_s": "host_cpu_s on compose_sweep",
    "codegen.self_s": "host_cpu_s on compose_sweep",
    "farm.cold.s": "host_cpu_s on compose_sweep",
    "farm.warm.s": _WARM, "farm.cache_hit_frac": _WARM,
    "snapshot.capture.s": _SNAP, "snapshot.save.s": _SNAP,
    "snapshot.load.s": _SNAP, "snapshot.restore.s": _SNAP,
    "snapshot.self_s": _SNAP, "snapshot.bytes": _SNAP,
    "snapshot.ms_per_capture": _SNAP, "snapshot.ms_per_restore": _SNAP,
    "bench.verify.s": "none: the benchmark's own cost, discount it",
    "trace.overhead_frac": "none: traced host_cpu_s / untraced median - 1",
    "trace.samples": "none: sampler hits behind the *.self_s shares",
}


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


def _per_layer() -> List[PerLayer]:
    rows = []
    for span in SPANS:
        rows.append((f"{span}.s", "s"))
        rows.append((f"{span}.n", "count"))
    rows += [(f"{m}.self_s", "s") for m in MODULES]
    rows += list(COUNTERS.items()) + list(COSTS.items())
    rows += [("trace.overhead_frac", "frac"), ("trace.samples", "count")]
    out = []
    for name, unit in rows:
        default = _MODEL if name in COUNTERS else "host_cpu_s where this layer runs"
        out.append(PerLayer(
            name, unit, "higher" if name in _HIGHER else "lower",
            MOVES.get(name, default),
        ))
    return out


PER_LAYER: List[PerLayer] = _per_layer()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer_values(rec: dict, untraced_cpu_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced rep record (0 where a layer is
    not exercised).  ``untraced_cpu_s`` is the untraced median the tracing
    overhead is measured against."""
    cpu_s = rec["host_cpu_s"]
    spans = rec["spans"]
    out: Dict[str, float] = {}
    for span in SPANS:
        slot = spans.get(span, {"s": 0.0, "n": 0})
        out[f"{span}.s"] = slot["s"]
        out[f"{span}.n"] = slot["n"]
    samples = rec["samples"]
    n_samples = sum(samples.values())
    known = set(MODULES) - {"other"}
    for module in known:
        out[f"{module}.self_s"] = _ratio(samples.get(module, 0), n_samples, cpu_s)
    stray = sum(n for m, n in samples.items() if m not in known)
    out["other.self_s"] = _ratio(stray, n_samples, cpu_s)
    counters = rec["counters"]
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    sim_s = out["runtime.get.s"] + out["sim.run.s"]
    dma_s = out["runtime.dma_in.s"] + out["runtime.dma_out.s"]
    out["sim.us_per_tick"] = _ratio(sim_s, out["sim.executed_ticks"], 1e6)
    out["runtime.us_per_dma_cycle"] = _ratio(dma_s, out["runtime.dma_cycles"], 1e6)
    out["snapshot.ms_per_capture"] = _ratio(
        out["snapshot.capture.s"], out["snapshot.capture.n"], 1e3)
    out["snapshot.ms_per_restore"] = _ratio(
        out["snapshot.restore.s"], out["snapshot.restore.n"], 1e3)
    out["core.ms_per_build"] = _ratio(out["core.build.s"], out["core.build.n"], 1e3)
    out["serve.us_per_command"] = _ratio(
        out["serve.run.s"], out["serve.completed"] + out["serve.rejected"], 1e6)
    out["trace.overhead_frac"] = _ratio(cpu_s, untraced_cpu_s) - 1.0
    out["trace.samples"] = n_samples
    return out
