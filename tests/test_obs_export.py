"""End-to-end observability tests: one instrumented memcpy run must yield a
coherent metrics dump, a valid Perfetto-loadable trace whose command span
contains its AXI bursts, and a per-component self-time profile."""

import json

import pytest

from repro.core.build import BeethovenBuild
from repro.kernels.memcpy import memcpy_config
from repro.obs import Observability
from repro.obs.export import (
    _assign_lanes,
    chrome_trace,
    validate_chrome_trace,
)
from repro.platforms import AWSF1Platform
from repro.runtime import FpgaHandle
from repro.sim.trace import Span, Tracer


@pytest.fixture(scope="module")
def memcpy_build():
    build = BeethovenBuild(
        memcpy_config(n_cores=1),
        AWSF1Platform(),
        observability=Observability(profile=True),
    )
    handle = FpgaHandle(build.design)
    size = 4096
    src, dst = handle.malloc(size), handle.malloc(size)
    src.write(bytes(i % 256 for i in range(size)))
    handle.copy_to_fpga(src)
    handle.call(
        "Memcpy", "memcpy", 0,
        src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=size,
    ).get(max_cycles=500_000)
    return build


def test_metrics_dump_covers_every_subsystem(memcpy_build):
    roots = {name.split("/")[0] for name in memcpy_build.registry.names()}
    assert {
        "sim", "trace", "chan", "dram", "noc", "cmd",
        "axi", "reader", "writer", "runtime",
    } <= roots
    metrics = memcpy_build.metrics()
    assert metrics["runtime/server/commands_sent"] == 1
    assert metrics["runtime/server/responses_received"] == 1
    assert int(memcpy_build.registry.value("dram/mc/read_cols")) > 0
    assert int(memcpy_build.registry.value("axi/ddr/bursts")) >= 2
    report = memcpy_build.metrics_report("runtime")
    assert "runtime/server/commands_sent" in report


def test_trace_validates_and_command_span_contains_axi_bursts(memcpy_build):
    trace = memcpy_build.chrome_trace()
    assert validate_chrome_trace(trace) == []
    # Round-trips through JSON.
    assert validate_chrome_trace(json.loads(json.dumps(trace))) == []

    tracer = memcpy_build.design.tracer
    root = next(s for s in tracer.closed_spans() if s.name == "cmd:memcpy")
    children = tracer.children_of(root.span_id)
    names = {c.name for c in children}
    assert {"dispatch", "execute"} <= names
    bursts = [c for c in children if c.name.startswith("axi:")]
    assert {"axi:read", "axi:write"} <= {b.name for b in bursts}
    for burst in bursts:
        assert root.begin_cycle <= burst.begin_cycle
        assert burst.end_cycle <= root.end_cycle

    # The exported events carry the parent linkage for reconstruction.
    by_id = {
        ev["args"]["span_id"]: ev
        for ev in trace["traceEvents"]
        if ev["ph"] == "X" and "span_id" in ev.get("args", {})
    }
    burst_ev = by_id[bursts[0].span_id]
    assert burst_ev["args"]["parent"] == root.span_id


def test_export_files(memcpy_build, tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    memcpy_build.export_chrome_trace(str(trace_path))
    memcpy_build.export_metrics(str(metrics_path))
    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    metrics = json.loads(metrics_path.read_text())
    assert metrics["runtime/server/commands_sent"] == 1


def test_profile_report_lists_component_self_time(memcpy_build):
    report = memcpy_build.profile_report()
    assert "self-time profile" in report
    # The DRAM controller and the kernel's own commit phase always appear.
    assert "mc" in report
    assert "(kernel)/commit" in report
    prof = memcpy_build.design.sim.tick_profile
    assert all(total >= 0 and calls > 0 for total, calls in prof.values())


def test_observability_off_disables_spans_and_profiler():
    build = BeethovenBuild(
        memcpy_config(n_cores=1),
        AWSF1Platform(),
        observability=Observability.off(),
    )
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(256), handle.malloc(256)
    handle.call(
        "Memcpy", "memcpy", 0,
        src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=256,
    ).get(max_cycles=500_000)
    assert build.design.span_tracker is None
    assert build.design.tracer.closed_spans() == []
    assert not build.design.sim.tick_profile
    # Metrics stay on: they are cheap enough to be unconditional.
    assert build.metrics()["runtime/server/commands_sent"] == 1
    assert "no profile samples" in build.profile_report()


def test_a_partial_config_leaves_the_profiler_off():
    """``Observability``'s defaults are the build's defaults: naming only
    ``max_events`` does not turn the wall-clock profiler on."""
    build = BeethovenBuild(
        memcpy_config(n_cores=1),
        AWSF1Platform(),
        observability=Observability(max_events=1000),
    )
    assert build.design.sim.profile_enabled is False
    assert build.design.tracer.max_events == 1000
    default = BeethovenBuild(memcpy_config(n_cores=1), AWSF1Platform())
    assert default.design.observability == Observability()


# ---------------------------------------------------------------------------
# Exporter unit tests.
# ---------------------------------------------------------------------------


def test_assign_lanes_spreads_overlaps():
    spans = [
        Span(1, "a", "t", 0, 10),
        Span(2, "b", "t", 5, 15),   # overlaps a -> new lane
        Span(3, "c", "t", 10, 20),  # fits after a -> lane 0 again
    ]
    lanes = _assign_lanes(spans)
    assert lanes[1] == 0 and lanes[2] == 1 and lanes[3] == 0


def test_chrome_trace_lane_thread_names():
    tracer = Tracer()
    a = tracer.begin_span(0, "core0", "a")
    b = tracer.begin_span(5, "core0", "b")
    tracer.end_span(a, 10)
    tracer.end_span(b, 15)
    trace = chrome_trace(tracer)
    names = [
        ev["args"]["name"]
        for ev in trace["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    ]
    assert names == ["core0", "core0 #2"]
    assert validate_chrome_trace(trace) == []


def test_validate_chrome_trace_rejects_malformed():
    assert validate_chrome_trace(42) == ["trace must be a JSON object or array"]
    assert validate_chrome_trace({}) == ["top-level object lacks a 'traceEvents' list"]
    problems = validate_chrome_trace(
        [
            "not-an-object",
            {"name": "x"},                                  # no ph
            {"ph": "X", "name": "x", "ts": -1},             # bad ts
            {"ph": "X", "name": "x", "ts": 0},              # missing dur
            {"ph": "X", "ts": 0, "dur": 1},                 # missing name
            {"ph": "M", "name": "meta"},                    # fine
            {"ph": "X", "name": "ok", "ts": 3, "dur": 2},   # fine
        ]
    )
    assert len(problems) == 5
