"""Differential cycle-exactness harness for the fast-forwarding kernel.

Fast-forwarding is the compiled program's event skipping: it jumps over
cycles in which no component can act and elides ticks of components with
nothing to do.

Every scenario here is run under both schedules — the ``naive`` oracle and
the ``compiled`` tick program — and the runs must be *indistinguishable* in
everything except wall clock: final cycle counts, per-channel statistics,
AXI transaction timelines, response orderings and latencies, and the data
the accelerator produced.  The compiled run must additionally prove that it
actually elided work (otherwise the harness is vacuous).
"""

import numpy as np
import pytest

from repro.baselines.delay_core import delay_config
from repro.command.packing import Address, CommandSpec, EmptyAccelResponse, Field, UInt
from repro.core import (
    AcceleratorConfig,
    BeethovenBuild,
    ReadChannelConfig,
    WriteChannelConfig,
)
from repro.core.accelerator import AcceleratorCore
from repro.core.build import BuildMode
from repro.kernels.machsuite.fig6 import simulate_measured
from repro.kernels.memcpy import memcpy_config
from repro.memory.types import ReadRequest, WriteRequest
from repro.obs import extract_command_paths, segment_totals
from repro.platforms import AWSF1Platform, SimulationPlatform
from repro.runtime import FpgaHandle
from repro.sim import (
    DEFAULT_SCHEDULING,
    NEVER,
    SCHEDULING_MODES,
    class_tick_table,
    render_class_tick_table,
    skip_summary,
    wake_summary,
)

#: The event-skipping schedule, compared against the naive oracle.
SKIPPING_MODES = SCHEDULING_MODES[1:]


def _channel_stats(design):
    """Per-channel statistics tuples, in registration order."""
    return [
        (c.name, c.total_pushed, c.total_popped, c.occupancy_accum, c.cycles_observed)
        for c in design.sim._channels
    ]


def _txn_records(design):
    return [
        (r.kind, r.axi_id, r.addr, r.length, r.issue_cycle, r.first_data_cycle,
         r.complete_cycle)
        for r in design.monitor.records
    ]


def _stable_metrics(design):
    """The full registry dump minus volatile entries (skip/tick accounting
    and trace-event counts, which legitimately differ between schedules)."""
    return design.registry.dump(stable_only=True)


def _elision(design):
    """Total component-ticks elided across the design (0 under naive).

    ``component_ticks`` already accounts for jumps (the compiled schedule
    advances ``cycle`` without ticking during one), so this is simply the
    gap between cycles elapsed and ticks executed, summed."""
    sim = design.sim
    return sum(sim.cycle - sim.component_ticks(c) for c in sim._components)


def _attribution_totals(design):
    """Critical-path segment totals (repro.obs.attribution) for the run.

    Attribution consumes only stable inputs (spans, monitor records,
    contention counters), so the decomposition must be bit-identical across
    scheduling modes.
    """
    paths = extract_command_paths(design.tracer, [design.monitor])
    for p in paths:
        assert sum(p.segments.values()) == p.latency
    return segment_totals(paths)


def _outcome(design, handle, responses, data_ok):
    return {
        "cycle": handle.cycle,
        "channel_stats": _channel_stats(design),
        "records": _txn_records(design),
        "responses": responses,
        "data": data_ok,
        "metrics": _stable_metrics(design),
        "attribution": _attribution_totals(design),
        "skipped": design.sim.cycles_skipped,
        "elided": _elision(design),
    }


def _assert_equivalent(naive, skipping):
    """Compare the observable outcome dicts of a naive and a skipping run."""
    assert skipping["cycle"] == naive["cycle"]
    assert skipping["channel_stats"] == naive["channel_stats"]
    assert skipping["records"] == naive["records"]
    assert skipping["responses"] == naive["responses"]
    assert skipping["data"] == naive["data"]
    # Every stable metric in the unified registry — channel occupancy
    # integrals, DRAM counters, NoC forward counts, runtime-server stats,
    # span counts — must be bit-identical between the two schedules.
    assert skipping["metrics"] == naive["metrics"]
    assert skipping["metrics"], "registry dump unexpectedly empty"
    # Cycle attribution (critical-path segment totals) is derived purely
    # from stable data, so it too must be scheduling-mode-identical.
    assert skipping["attribution"] == naive["attribution"]
    # The whole point: the skipping run elided work, the naive run never
    # does (compiled elides individual component ticks even on cycles it
    # steps, and whole cycles when nobody is woken).
    assert naive["skipped"] == 0
    assert naive["elided"] == 0
    assert skipping["elided"] > 0


# ---------------------------------------------------------------------------
# Scenario 1: memcpy through the full stack (host -> MMIO -> core -> DRAM).
# ---------------------------------------------------------------------------


def _run_memcpy(scheduling):
    size = 4096
    build = BeethovenBuild(
        memcpy_config(n_cores=1),
        AWSF1Platform(),
        BuildMode.Simulation,
        scheduling=scheduling,
    )
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(size), handle.malloc(size)
    pattern = bytes((i * 131 + 17) % 256 for i in range(size))
    src.write(pattern)
    handle.copy_to_fpga(src)
    resp = handle.call(
        "Memcpy", "memcpy", 0,
        src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=size,
    )
    resp.get(max_cycles=500_000)
    handle.copy_from_fpga(dst)
    return _outcome(
        build.design, handle, [resp.latency_cycles], dst.read() == pattern
    )


@pytest.mark.parametrize("mode", SKIPPING_MODES)
def test_memcpy_differential(mode):
    _assert_equivalent(_run_memcpy("naive"), _run_memcpy(mode))


# ---------------------------------------------------------------------------
# Scenario 2: multi-channel XOR core (two Readers + one Writer, purely
# reactive core with an explicit NEVER hint).
# ---------------------------------------------------------------------------


class XorCore(AcceleratorCore):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.io = self.beethoven_io(
            CommandSpec(
                "xor",
                (
                    Field("a_addr", Address()),
                    Field("b_addr", Address()),
                    Field("out_addr", Address()),
                    Field("n_bytes", UInt(20)),
                ),
            ),
            EmptyAccelResponse(),
        )
        self.in_a = self.get_reader_module("ins", 0)
        self.in_b = self.get_reader_module("ins", 1)
        self.out = self.get_writer_module("outs")
        self._active = False

    def tick(self, cycle):
        io = self.io
        if (
            not self._active
            and io.req.can_pop()
            and self.in_a.request.can_push()
            and self.in_b.request.can_push()
            and self.out.request.can_push()
        ):
            cmd = io.req.pop()
            self.in_a.request.push(ReadRequest(cmd["a_addr"], cmd["n_bytes"]))
            self.in_b.request.push(ReadRequest(cmd["b_addr"], cmd["n_bytes"]))
            self.out.request.push(WriteRequest(cmd["out_addr"], cmd["n_bytes"]))
            self._active = True
        if (
            self._active
            and self.in_a.data.can_pop()
            and self.in_b.data.can_pop()
            and self.out.data.can_push()
        ):
            a = self.in_a.data.pop()
            b = self.in_b.data.pop()
            self.out.data.push(bytes(x ^ y for x, y in zip(a, b)))
        if self._active and self.out.done.can_pop() and io.resp.can_push():
            self.out.done.pop()
            io.resp.push({})
            self._active = False

    def next_event(self, cycle):
        return NEVER  # purely reactive


def _run_multichannel(scheduling):
    n = 2048
    cfg = AcceleratorConfig(
        name="Xor",
        n_cores=1,
        module_constructor=XorCore,
        memory_channel_config=(
            ReadChannelConfig("ins", data_bytes=16, n_channels=2),
            WriteChannelConfig("outs", data_bytes=16),
        ),
    )
    build = BeethovenBuild(
        cfg, AWSF1Platform(), BuildMode.Simulation, scheduling=scheduling
    )
    handle = FpgaHandle(build.design)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, n).astype(np.uint8)
    b = rng.integers(0, 256, n).astype(np.uint8)
    pa, pb, po = handle.malloc(n), handle.malloc(n), handle.malloc(n)
    pa.write(a.tobytes())
    pb.write(b.tobytes())
    handle.copy_to_fpga(pa)
    handle.copy_to_fpga(pb)
    resp = handle.call(
        "Xor", "xor", 0,
        a_addr=pa.fpga_addr, b_addr=pb.fpga_addr, out_addr=po.fpga_addr, n_bytes=n,
    )
    resp.get(max_cycles=500_000)
    handle.copy_from_fpga(po)
    got = np.frombuffer(po.read(), dtype=np.uint8)
    return _outcome(
        build.design, handle, [resp.latency_cycles], bool((got == (a ^ b)).all())
    )


@pytest.mark.parametrize("mode", SKIPPING_MODES)
def test_multichannel_differential(mode):
    _assert_equivalent(_run_multichannel("naive"), _run_multichannel(mode))


# ---------------------------------------------------------------------------
# Scenario 3: runtime-server contention with long-latency DelayCores — the
# sparse configuration event-skipping exists for.
# ---------------------------------------------------------------------------


def _run_server(scheduling):
    n_cores, latency, rounds = 2, 5000, 3
    build = BeethovenBuild(
        delay_config(n_cores, latency),
        AWSF1Platform(),
        BuildMode.Simulation,
        scheduling=scheduling,
    )
    handle = FpgaHandle(build.design)
    futures = []
    for r in range(rounds):
        for core in range(n_cores):
            futures.append(handle.call("Delay", "run", core, job=r))
    for fut in futures:
        fut.get(max_cycles=10_000_000)
    server = handle.server
    return _outcome(
        build.design,
        handle,
        [f.latency_cycles for f in futures],
        (
            server.commands_sent,
            server.responses_received,
            server.lock_wait_cycles,
            server.busy_cycles,
            tuple(
                p.segments["queue_wait"]
                for p in extract_command_paths(build.design.tracer, [build.design.monitor])
            ),
        ),
    )


def test_runtime_server_differential_compiled():
    naive, comp = _run_server("naive"), _run_server("compiled")
    _assert_equivalent(naive, comp)
    # A busy core never pins idle components awake — sleeping components
    # never appear in the dispatch order — so across the design the elided
    # ticks exceed a full component-lifetime of work, and long-latency
    # kernels leave dead time the schedule jumps over outright.
    assert comp["elided"] > comp["cycle"]
    assert comp["skipped"] > comp["cycle"] * 0.25


# ---------------------------------------------------------------------------
# Scenario 4: the fig6 MachSuite measured-bar configuration (acceptance
# criterion: compiled is bit-identical to naive on these configs).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", SKIPPING_MODES)
def test_fig6_machsuite_differential(mode):
    # Small Delay-core stand-in at a real fig6 operating point: multi-core
    # with runtime-server contention, exactly what the Fig. 6 measured bar simulates.
    results = {
        s: simulate_measured(4, 3000, AWSF1Platform(), rounds=2, scheduling=s)
        for s in ("naive", mode)
    }
    assert results[mode].ops_per_second == results["naive"].ops_per_second
    assert results[mode].server_bound == results["naive"].server_bound


def test_skip_summary_shape():
    build = BeethovenBuild(
        delay_config(1, 2000), AWSF1Platform(), BuildMode.Simulation,
        scheduling="compiled",
    )
    handle = FpgaHandle(build.design)
    handle.call("Delay", "run", 0, job=0).get(max_cycles=1_000_000)
    summary = skip_summary(build.design.sim)
    assert summary["cycles_total"] == handle.cycle
    assert summary["cycles_stepped"] + summary["cycles_skipped"] == handle.cycle
    assert 0.0 < summary["skip_fraction"] < 1.0
    assert summary["skip_events"] == build.design.sim.skip_events


def test_wake_summary_shape():
    build = BeethovenBuild(
        delay_config(2, 2000), AWSF1Platform(), BuildMode.Simulation
    )  # no scheduling= named: the default schedule
    handle = FpgaHandle(build.design)
    handle.call("Delay", "run", 0, job=0).get(max_cycles=1_000_000)
    sim = build.design.sim
    assert sim.scheduling == DEFAULT_SCHEDULING
    summary = wake_summary(sim)
    assert len(summary) == len(sim._components)
    for name, s in summary.items():
        assert s["ticks_executed"] + s["ticks_elided"] == sim.cycle
        assert 0.0 <= s["tick_fraction"] <= 1.0
    # The idle second core must have been almost entirely elided while the
    # commanded core worked.
    idle_core = summary["Delay.core1"]
    assert idle_core["tick_fraction"] < 0.5


def test_class_tick_table_rolls_up_wake_summary():
    build = BeethovenBuild(memcpy_config(n_cores=4), AWSF1Platform())
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(2048), handle.malloc(2048)
    handle.copy_to_fpga(src)
    handle.call(
        "Memcpy", "memcpy", 1, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=2048
    ).get()
    sim = build.design.sim
    table = class_tick_table(sim)
    summary = wake_summary(sim)
    assert sum(row["instances"] for row in table.values()) == len(summary)
    assert sum(row["ticks_executed"] for row in table.values()) == sum(
        s["ticks_executed"] for s in summary.values()
    )
    ticks = [row["ticks_executed"] for row in table.values()]
    assert ticks == sorted(ticks, reverse=True)
    for row in table.values():
        assert row["ticks_executed"] + row["ticks_elided"] == row["instances"] * sim.cycle
        assert 0.0 <= row["elided_fraction"] <= 1.0
    # 32 columns read + 32 written; three of the four cores never woke.
    mc = table["MemoryController"]
    assert mc["instances"] == 1
    assert mc["ticks_per_dram_col"] == mc["ticks_executed"] / 64
    assert table["MemcpyCore"]["instances"] == 4
    assert table["MemcpyCore"]["elided_fraction"] > 0.75
    # One host command moved those columns, so both denominators show.
    assert mc["ticks_per_command"] == mc["ticks_executed"]
    text = render_class_tick_table(table)
    assert all(name in text for name in table)
    assert "ticks/col" in text and "ticks/cmd" in text
    # A design that never ran did neither kind of work.
    idle = class_tick_table(BeethovenBuild(memcpy_config(n_cores=1), AWSF1Platform()).design.sim)
    assert all(row["ticks_per_command"] == row["ticks_per_dram_col"] == 0.0 for row in idle.values())
    assert "ticks/col" in render_class_tick_table(idle)
    # Unprofiled runs have no self-time to divide.
    assert not any("us_per_tick" in row for row in table.values())
    assert "us/tick" not in text and "(kernel)/commit" not in table


@pytest.mark.parametrize("mode", ("naive", "compiled"))
def test_profiled_class_tick_table_adds_us_per_tick(mode):
    """Profiled: each class's self-time over its executed ticks, and the
    channel commit sweeps as a last ``(kernel)/commit`` row."""
    from repro.obs import Observability

    build = BeethovenBuild(memcpy_config(n_cores=2), AWSF1Platform(), scheduling=mode,
                           observability=Observability(enabled=False, profile=True))
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(1024), handle.malloc(1024)
    handle.copy_to_fpga(src)
    handle.call("Memcpy", "memcpy", 0, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=1024).get()
    sim = build.design.sim
    table = class_tick_table(sim)
    assert list(table)[-1] == "(kernel)/commit"
    ns_sweeps = sim.tick_profile["(kernel)/commit"]
    kernel = table["(kernel)/commit"]
    assert kernel["instances"] == 0 and kernel["ticks_executed"] == ns_sweeps[1]
    assert kernel["us_per_tick"] == ns_sweeps[0] / ns_sweeps[1] / 1e3
    for name, row in table.items():
        if name == "(kernel)/commit":
            continue
        comps = [c for c in sim._components if type(c).__name__ == name]
        ns = sum(sim.tick_profile.get(c.name, (0, 0))[0] for c in comps)
        assert row["ticks_executed"] == sum(sim.component_ticks(c) for c in comps)
        assert row["us_per_tick"] == (ns / row["ticks_executed"] / 1e3 if row["ticks_executed"] else 0.0)
    assert table["MemoryController"]["us_per_tick"] > 0
    text = render_class_tick_table(table)
    assert "us/tick" in text and "(kernel)/commit" in text


@pytest.mark.parametrize("mode", SKIPPING_MODES)
def test_skipping_respects_run_deadline(mode):
    """A bounded run() without a predicate lands exactly on its deadline."""
    build = BeethovenBuild(
        delay_config(1, 100),
        SimulationPlatform(),
        BuildMode.Simulation,
        scheduling=mode,
    )
    handle = FpgaHandle(build.design)
    handle.run_until(None, 0)  # no-op; exercise plumbing
    start = handle.cycle
    build.design.sim.run(12_345)
    assert handle.cycle == start + 12_345
