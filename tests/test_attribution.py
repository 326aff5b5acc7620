"""Tests for the cycle-attribution layer (repro.obs.attribution) and its
satellites: segment decomposition on hand-built span trees, contention
rollups, bench-history regression checks, histogram percentiles, trace
truncation warnings, and per-component samples from a profiled compiled run."""

import json

import pytest

from repro.axi.monitor import TxnRecord
from repro.obs.attribution import (
    SEGMENTS,
    attribution_report,
    contention_summary,
    counter_track_events,
    dram_service_split,
    extract_command_paths,
    render_attribution_report,
    segment_totals,
)
from repro.obs.registry import DEFAULT_PERCENTILES, Histogram, MetricRegistry
from repro.obs.regress import (
    append_history,
    check_regressions,
    flatten_numeric,
    load_history,
    metric_direction,
    render_check,
)
from repro.sim.trace import Tracer


class _FakeMonitor:
    def __init__(self, records):
        self.records = records
        self.port_name = "ddr"


def _cmd_tree(tracer, begin, dispatch, noc_in, execute, end, bursts=()):
    """Build one cmd span tree: returns the root id.

    ``bursts``: (begin, end, kind, addr, beats) child spans inside execute.
    """
    root = tracer.begin_span(begin, "sys0/core0", "cmd:test")
    d = tracer.begin_span(dispatch[0], "runtime", "dispatch", parent=root)
    tracer.end_span(d, dispatch[1])
    x = tracer.begin_span(execute[0], "sys0/core0", "execute", parent=root)
    for b, e, kind, addr, beats in bursts:
        s = tracer.begin_span(
            b, "reader/r0", f"axi:{kind}", parent=root, addr=addr, beats=beats
        )
        tracer.end_span(s, e)
    tracer.end_span(x, execute[1])
    tracer.end_span(root, end)
    return root


# ---------------------------------------------------------------------------
# Segment decomposition on hand-built span trees.
# ---------------------------------------------------------------------------


def test_decomposition_no_bursts_exact_sum():
    tracer = Tracer()
    _cmd_tree(tracer, 10, (14, 20), None, (25, 95), 100)
    paths = extract_command_paths(tracer)
    assert len(paths) == 1
    p = paths[0]
    assert p.latency == 90
    assert sum(p.segments.values()) == 90
    assert p.segments["queue_wait"] == 4  # 10..14
    assert p.segments["dispatch"] == 6  # 14..20
    assert p.segments["cmd_noc"] == 5  # 20..25
    assert p.segments["core_compute"] == 70  # whole execute window
    assert p.segments["response"] == 5  # 95..100
    assert set(p.segments) == set(SEGMENTS)


def test_decomposition_burst_phases_and_compute_gap():
    """One read burst with known DDR timing splits the execute window into
    noc-request / dram-queue / dram-service / noc-return plus compute."""
    tracer = Tracer()
    _cmd_tree(
        tracer, 0, (0, 2), None, (5, 65), 70,
        bursts=[(10, 50, "read", 0x1000, 4)],
    )
    rec = TxnRecord("read", 0, 0x1000, 4, issue_cycle=15,
                    first_data_cycle=30, complete_cycle=42)
    paths = extract_command_paths(tracer, [_FakeMonitor([rec])])
    p = paths[0]
    assert sum(p.segments.values()) == p.latency == 70
    assert p.segments["mem_noc_request"] == 5  # 10..15
    assert p.segments["mem_dram_queue"] == 15  # 15..30
    assert p.segments["mem_dram_service"] == 12  # 30..42
    assert p.segments["mem_noc_return"] == 8  # 42..50
    # 5..10 and 50..65 have no outstanding burst -> compute.
    assert p.segments["core_compute"] == 20
    assert p.segments["mem_unmatched"] == 0


def test_decomposition_overlapping_bursts_oldest_wins():
    """While two bursts overlap, only the oldest attributes the interval —
    segments still sum exactly (no double counting)."""
    tracer = Tracer()
    _cmd_tree(
        tracer, 0, (0, 0), None, (0, 100), 100,
        bursts=[
            (10, 60, "read", 0x0, 4),
            (20, 80, "read", 0x100, 4),
        ],
    )
    recs = [
        TxnRecord("read", 0, 0x0, 4, 12, 20, 55),
        TxnRecord("read", 0, 0x100, 4, 25, 40, 75),
    ]
    paths = extract_command_paths(tracer, [_FakeMonitor(recs)])
    p = paths[0]
    assert sum(p.segments.values()) == 100
    # 10..60 belongs to burst 1; burst 2 only owns 60..80 (its queue phase
    # already ended, so that lands in dram-service then noc-return).
    assert p.segments["core_compute"] == 10 + 20  # 0..10 and 80..100


def test_decomposition_unmatched_burst_books_unmatched_segment():
    tracer = Tracer()
    _cmd_tree(
        tracer, 0, (0, 0), None, (0, 50), 50,
        bursts=[(10, 30, "read", 0x42, 2)],
    )
    paths = extract_command_paths(tracer)  # no monitor records at all
    p = paths[0]
    assert p.segments["mem_unmatched"] == 20
    assert sum(p.segments.values()) == 50


def test_decomposition_clamps_malformed_children():
    """Children poking outside the root interval are clamped, never negative."""
    tracer = Tracer()
    root = tracer.begin_span(20, "t", "cmd:odd")
    d = tracer.begin_span(5, "t", "dispatch", parent=root)  # begins early
    tracer.end_span(d, 90)  # ends past the execute start
    x = tracer.begin_span(40, "t", "execute", parent=root)
    tracer.end_span(x, 200)  # ends past root end
    tracer.end_span(root, 100)
    p = extract_command_paths(tracer)[0]
    assert sum(p.segments.values()) == 80
    assert all(v >= 0 for v in p.segments.values())


def test_fifo_matching_pairs_repeated_addresses_in_order():
    """Two bursts with identical (kind, addr, beats) match records in FIFO
    order, keeping phase boundaries with their own burst."""
    tracer = Tracer()
    _cmd_tree(
        tracer, 0, (0, 0), None, (0, 100), 100,
        bursts=[(0, 40, "write", 0x0, 1), (50, 90, "write", 0x0, 1)],
    )
    recs = [
        TxnRecord("write", 0, 0x0, 1, 10, 20, 30),
        TxnRecord("write", 0, 0x0, 1, 60, 70, 80),
    ]
    p = extract_command_paths(tracer, [_FakeMonitor(recs)])[0]
    assert p.segments["mem_noc_request"] == 10 + 10
    assert p.segments["mem_dram_queue"] == 10 + 10
    assert p.segments["mem_dram_service"] == 10 + 10
    assert p.segments["mem_noc_return"] == 10 + 10
    assert sum(p.segments.values()) == 100


def test_segment_totals_and_report_render():
    tracer = Tracer()
    _cmd_tree(tracer, 0, (0, 2), None, (4, 40), 44)
    _cmd_tree(tracer, 50, (50, 52), None, (54, 90), 94)
    paths = extract_command_paths(tracer)
    totals = segment_totals(paths)
    assert sum(totals.values()) == sum(p.latency for p in paths) == 88
    report = attribution_report(tracer, cycles=100)
    assert report["commands"] == 2
    assert report["bottleneck"] == "compute"
    text = render_attribution_report(report)
    assert "compute-bound" in text
    assert "2 command(s)" in text


def test_open_root_spans_are_skipped():
    tracer = Tracer()
    tracer.begin_span(0, "t", "cmd:open")  # never closed
    assert extract_command_paths(tracer) == []
    assert extract_command_paths(None) == []


# ---------------------------------------------------------------------------
# Contention rollup + DRAM service split.
# ---------------------------------------------------------------------------


def test_contention_summary_rolls_up_by_suffix():
    metrics = {
        "dram/ctrl/bus_cycles": 500,
        "dram/ctrl/row_hits": 90,
        "dram/ctrl/row_misses": 10,
        "dram/ctrl/row_conflicts": 4,
        "dram/ctrl/queue_wait_cycles": 200,
        "dram/ctrl/read_cols": 60,
        "dram/ctrl/write_cols": 40,
        "dram/ctrl/activations": 12,
        "dram/ctrl/bank0/row_hits": 50,
        "dram/ctrl/bank0/activations": 6,
        "noc/n0/stall_ar_cycles": 7,
        "noc/n1/stall_ar_cycles": 3,
        "noc/n1/stall_w_cycles": 5,
        "reader/a/stall_gap_cycles": 11,
        "reader/b/stall_gap_cycles": 9,
        "writer/a/stall_backpressure_cycles": 13,
        "unrelated/thing": 99,
    }
    s = contention_summary(metrics, cycles=1000)
    assert s["dram"]["bus_utilization"] == 0.5
    assert s["dram"]["row_hit_rate"] == 0.9
    assert s["dram"]["mean_queue_wait"] == 2.0
    # Per-bank entries are kept separately, not double counted.
    assert s["dram"]["row_hits"] == 90
    assert s["dram"]["banks"]["bank0"] == {"row_hits": 50, "activations": 6}
    assert s["noc"]["stall_cycles"] == {"ar": 10, "w": 5}
    assert s["noc"]["stall_cycles_total"] == 15
    assert s["tlp"]["reader"]["stall_gap_cycles"] == 20
    assert s["tlp"]["writer"]["stall_backpressure_cycles"] == 13


def test_dram_service_split_uses_timing_weights():
    from repro.dram.timing import DramTiming

    timing = DramTiming()
    contention = contention_summary(
        {
            "dram/c/bus_cycles": 100,
            "dram/c/activations": 10,
            "dram/c/row_conflicts": 5,
            "dram/c/turnarounds": 2,
            "dram/c/refreshes": 1,
        },
        cycles=1000,
    )
    split = dram_service_split(contention, timing)
    assert split["column_transfer"]["cycles"] == 100
    assert split["activate"]["cycles"] == 10 * timing.t_rcd
    assert split["precharge"]["cycles"] == 5 * timing.t_rp
    assert split["turnaround"]["cycles"] == 2 * timing.t_bus_turn
    assert split["refresh"]["cycles"] == 1 * timing.t_rfc
    assert abs(sum(v["share"] for v in split.values()) - 1.0) < 1e-9


def test_counter_track_events_cumulative_and_valid():
    from repro.obs.export import validate_chrome_trace

    recs = [
        TxnRecord("read", 0, 0x0, 4, 10, 12, 20),
        TxnRecord("read", 0, 0x40, 4, 15, 22, 30),
        TxnRecord("write", 0, 0x80, 4, 5, 8, 12),
    ]
    events = counter_track_events([_FakeMonitor(recs)])
    reads = [e for e in events if "read" in e["name"]]
    assert [(e["ts"], e["args"]["value"]) for e in reads] == [
        (10, 1), (15, 2), (20, 1), (30, 0),
    ]
    assert all(e["ph"] == "C" for e in events)
    assert validate_chrome_trace(events) == []


# ---------------------------------------------------------------------------
# Histogram percentiles (satellite: p999 + configurable list).
# ---------------------------------------------------------------------------


def test_histogram_dump_reports_default_percentiles():
    h = Histogram()
    for v in range(1, 1001):
        h.observe(v)
    dump = h.dump_value()
    for q in DEFAULT_PERCENTILES:
        key = "p" + f"{q * 100:g}".replace(".", "")
        assert key in dump
    # Bucket interpolation is exact at bucket bounds and monotone.
    assert dump["p50"] <= dump["p90"] <= dump["p99"] <= dump["p999"] <= 1024
    assert dump["p999"] >= dump["p99"] >= 900


def test_histogram_custom_percentiles_and_registry_pass_through():
    reg = MetricRegistry()
    h = Histogram(buckets=(10, 100), percentiles=(0.25,))
    reg.scope("a").bind("lat", lambda: h.dump_value())
    for v in (1, 2, 3, 4):
        h.observe(v)
    dump = reg.dump()["a/lat"]
    assert "p25" in dump and "p50" not in dump
    assert 0 < dump["p25"] <= 10
    with pytest.raises(ValueError):
        Histogram(percentiles=(1.5,))
    # The rendered report shows the tails next to count/total.
    report = reg.render_report()
    assert "count=4" in report and "p25=" in report


def test_histogram_quantile_empty_and_overflow():
    h = Histogram(buckets=(10,))
    assert h.quantile(0.5) == 0.0
    h.observe(1000)  # overflow bin
    assert h.quantile(0.9) == 10.0  # clamped to the largest bound


# ---------------------------------------------------------------------------
# Trace truncation warning (satellite: never-silent ring-buffer wrap).
# ---------------------------------------------------------------------------


def test_chrome_trace_warns_on_ring_buffer_wrap():
    from repro.obs.export import TraceTruncationWarning, chrome_trace

    tracer = Tracer(max_events=2)
    for i in range(5):
        tracer.end_span(tracer.begin_span(i, "t", f"s{i}"), i + 1)
    assert tracer.dropped_spans == 3
    with pytest.warns(TraceTruncationWarning):
        trace = chrome_trace(tracer)
    assert trace["otherData"]["dropped_spans"] == 3


def test_chrome_trace_quiet_without_drops(recwarn):
    from repro.obs.export import chrome_trace

    tracer = Tracer()
    tracer.end_span(tracer.begin_span(1, "t", "s"), 2)
    trace = chrome_trace(tracer)
    assert "dropped_spans" not in trace["otherData"]
    assert not recwarn.list


# ---------------------------------------------------------------------------
# Profiled compiled runs keep per-component attribution (satellite 1).
# ---------------------------------------------------------------------------


class _SharedWakeRelay:
    """Minimal relay stage whose wake signature is the whole chain's channel
    set, so every stage is woken whenever any of them is."""

    def __new__(cls, name, inp, out, all_links):
        from repro.sim import Component

        class _Stage(Component):
            def __init__(self):
                super().__init__(name)
                self.inp, self.out, self.all_links = inp, out, all_links
                self._item = None

            def channels(self):
                return [self.inp, self.out]

            def wake_channels(self):
                return list(self.all_links)

            def tick(self, cycle):
                if self._item is not None and self.out.can_push():
                    self.out.push(self._item)
                    self._item = None
                if self._item is None and self.inp.can_pop():
                    self._item = self.inp.pop()

            def next_event(self, cycle):
                from repro.sim import NEVER

                return cycle if self._item is not None else NEVER

        return _Stage()


def _relay_chain(profile):
    from repro.sim import ChannelQueue, Simulator

    sim = Simulator(scheduling="compiled", profile=profile)
    links = [ChannelQueue(2, f"l{i}") for i in range(5)]
    for i in range(4):
        sim.add(_SharedWakeRelay(f"s{i}", links[i], links[i + 1], links))
    for link in links:
        sim.register_channel(link)
    for v in range(8):
        if links[0].can_push():
            links[0].push(v)
    sim.run(50)
    return sim


def test_compiled_profile_has_no_fused_slots():
    """A profiled run executes the same one-slot-per-component program as
    an unprofiled one, every self-time sample lands on a real component,
    and both produce the same cycle count."""
    profiled = _relay_chain(profile=True)
    plain = _relay_chain(profile=False)
    assert profiled.cycle == plain.cycle
    names = {comp.name for comp in profiled._program.components}
    assert len(names) == len(profiled._program._tick_fns)
    assert profiled.tick_profile, "profiler collected no samples"
    assert not any(label.startswith("(fused)") for label in profiled.tick_profile)
    assert set(profiled.tick_profile) <= names | {"(kernel)/commit"}


# ---------------------------------------------------------------------------
# Bench history + regression check (repro.obs.regress).
# ---------------------------------------------------------------------------


def test_flatten_and_direction_classifier():
    flat = flatten_numeric({"a": {"b": 2, "ok": True}, "c": 1.5, "s": "x"})
    assert flat == {"a.b": 2.0, "c": 1.5}
    assert metric_direction("cases.dense.speedup.compiled_vs_naive") == 1
    assert metric_direction("modes.naive.cycles_per_second") == 1
    assert metric_direction("modes.naive.wall_seconds") == -1
    assert metric_direction("modes.naive.setup_seconds") == -1
    assert metric_direction("modes.naive.end_to_end_seconds") == -1
    for phase in ("elaborate_seconds", "simulate_seconds", "cache_seconds"):
        assert metric_direction(phase) == -1
    assert metric_direction("modes.naive.cycles") == -1
    assert metric_direction("objects_frozen") == -1  # a checkpoint's capture cost
    assert metric_direction("cases.dense.size_bytes") == 0
    assert metric_direction("n_cores") == 0


def _write_bench(tmp_path, name, wall, speedup):
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps(
        {"modes": {"naive": {"wall_seconds": wall}}, "speedup": speedup}
    ))
    return str(path)


def test_history_append_check_and_gate(tmp_path):
    hist = str(tmp_path / "history.jsonl")

    # First point: no baseline -> warn-only pass.
    append_history(hist, _write_bench(tmp_path, "kernel", 1.0, 2.0))
    entries = load_history(hist)
    assert len(entries) == 1
    assert entries[0]["bench"] == "kernel"
    assert entries[0]["metrics"]["speedup"] == 2.0
    assert "git_sha" in entries[0] and "code_salt" in entries[0]
    ok, findings, n_baseline = check_regressions(entries)
    assert ok and n_baseline == 0
    assert "no baseline" in render_check(ok, findings, n_baseline, "kernel")

    # Second point, similar numbers: gate armed, passes.
    append_history(hist, _write_bench(tmp_path, "kernel", 1.05, 1.95))
    entries = load_history(hist)
    ok, findings, n_baseline = check_regressions(entries)
    assert ok and n_baseline == 1 and not findings

    # Regressed point: speedup collapsed and wall time ballooned.
    append_history(hist, _write_bench(tmp_path, "kernel", 3.0, 0.5))
    entries = load_history(hist)
    ok, findings, n_baseline = check_regressions(entries, tolerance=0.2)
    assert not ok
    regressed = {f["metric"] for f in findings}
    assert "speedup" in regressed
    assert "modes.naive.wall_seconds" in regressed
    assert "regression(s)" in render_check(ok, findings, n_baseline, "kernel")


def test_history_tolerates_torn_lines_and_filters_by_name(tmp_path):
    hist = tmp_path / "history.jsonl"
    hist.write_text(
        json.dumps({"bench": "a", "metrics": {"speedup": 1.0}}) + "\n"
        + "{torn line\n"
        + json.dumps({"bench": "b", "metrics": {"speedup": 9.0}}) + "\n"
    )
    assert [e["bench"] for e in load_history(str(hist))] == ["a", "b"]
    assert [e["bench"] for e in load_history(str(hist), name="a")] == ["a"]
    assert load_history(str(tmp_path / "missing.jsonl")) == []


def test_bench_history_cli_roundtrip(tmp_path):
    import subprocess
    import sys

    hist = str(tmp_path / "h.jsonl")
    bench = _write_bench(tmp_path, "kernel", 1.0, 2.0)
    env_args = dict(cwd="/root/repo")

    def run(*args):
        return subprocess.run(
            [sys.executable, "tools/bench_history.py", *args],
            capture_output=True, text=True, **env_args,
        )

    r = run("append", "--history", hist, "--bench", bench)
    assert r.returncode == 0, r.stderr
    assert "appended 'kernel'" in r.stdout
    r = run("check", "--history", hist)
    assert r.returncode == 0
    assert "no baseline" in r.stdout
    run("append", "--history", hist, "--bench", bench)
    bad = _write_bench(tmp_path, "kernel", 9.0, 0.1)
    run("append", "--history", hist, "--bench", bad)
    r = run("check", "--history", hist)
    assert r.returncode == 1
    assert "regression(s)" in r.stdout


def test_bottleneck_report_prints_ticks_per_dram_column(tmp_path):
    """The memcpy point reports every component's executed ticks over the
    DRAM columns it moved: each of its ``MEMCPY_ROUNDS`` 4 KiB copies reads
    and writes 64 columns.  Its artefacts are deterministic: two runs write
    identical JSON, and the profiled µs per tick is printed, not written."""
    import os
    import subprocess
    import sys

    from test_tick_budget import _bottleneck_report

    cols = 128 * _bottleneck_report().MEMCPY_ROUNDS
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        r = subprocess.run(
            [sys.executable, "tools/bottleneck_report.py", "--out", str(out),
             "--bench", "gemm", "--cores", "1", "--rounds", "1", "--memcpy-bytes", "4096"],
            capture_output=True, text=True, cwd=repo, timeout=120,
        )
        assert r.returncode == 0, r.stderr
        assert "us/tick" in r.stdout
        runs.append({name: (out / name).read_text()
                     for name in ("bottleneck_report.json", "attribution_memcpy.json")})
    assert runs[0] == runs[1]
    assert "us_per_tick" not in runs[0]["bottleneck_report.json"]
    memcpy = json.loads(runs[0]["bottleneck_report.json"])["memcpy"]
    ticks = sum(row["ticks_executed"] for row in memcpy["class_ticks"].values() if row["instances"])
    assert memcpy["ticks_per_dram_col"] == pytest.approx(ticks / cols)
    assert f"executed ticks per DRAM column: {ticks / cols:.2f}" in r.stdout


def test_bottleneck_report_prints_ticks_per_host_command(tmp_path):
    """The Fig. 6 point reports every component's executed ticks over the
    host commands the runtime server sent: two cores, two rounds."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, "tools/bottleneck_report.py", "--out", str(tmp_path),
         "--bench", "gemm", "--cores", "2", "--rounds", "2", "--memcpy-bytes", "0"],
        capture_output=True, text=True, cwd=repo, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "bottleneck_report.json") as fh:
        fig6 = json.load(fh)["fig6_gemm"]
    ticks = sum(row["ticks_executed"] for row in fig6["class_ticks"].values() if row["instances"])
    assert fig6["ticks_per_command"] == pytest.approx(ticks / 4)
    assert f"executed ticks per host command: {ticks / 4:.2f}" in r.stdout
