"""Tests for the analysis helpers, including arbitration fairness."""

import pytest

from repro.analysis import (
    LatencyStats,
    _percentile,
    bandwidth_share,
    bytes_transferred,
    dram_bus_utilisation,
    dram_row_hit_rate,
    latency_stats,
    noc_link_beats,
    registry_frame,
    skip_fraction,
)
from repro.axi import AxiParams
from repro.axi.monitor import TxnRecord
from repro.baselines.copier import HLS
from repro.baselines.memcpy_experiment import run_baseline_memcpy
from repro.serve.loadgen import jain_index
from repro.memory import Reader, ReadRequest
from repro.sim import Component
from repro.testing import build_memory_testbench


def rec(kind, axi_id, addr, length, issue, complete):
    r = TxnRecord(kind, axi_id, addr, length, issue)
    r.complete_cycle = complete
    return r


def test_latency_stats_basics():
    records = [rec("read", 0, 0, 1, i, i + 10 + i) for i in range(8)]
    stats = latency_stats(records, "read")
    assert stats.count == 8
    assert stats.max == 17
    assert stats.growth == pytest.approx(17 / 10.5)


def test_latency_stats_empty():
    assert latency_stats([]) == LatencyStats.empty()


def test_percentile_linear_interpolation():
    """Regression pin: percentiles interpolate between closest ranks
    (numpy's ``linear`` convention) instead of truncating to an index."""
    assert _percentile([1, 2, 3, 4], 0.50) == pytest.approx(2.5)
    assert _percentile([1, 2, 3, 4], 0.25) == pytest.approx(1.75)
    assert _percentile([1, 2, 3, 4], 0.0) == 1.0
    assert _percentile([1, 2, 3, 4], 1.0) == 4.0
    # 10 observations: rank 0.95 * 9 = 8.55 -> 80 + 0.55 * 10.
    assert _percentile(list(range(0, 100, 10)), 0.95) == pytest.approx(85.5)
    assert _percentile([7], 0.95) == 7.0
    assert _percentile([], 0.5) == 0.0
    # Out-of-range fractions clamp instead of indexing out of bounds.
    assert _percentile([1, 2], 1.5) == 2.0
    assert _percentile([1, 2], -0.5) == 1.0


def test_latency_stats_percentiles_pinned():
    records = [rec("read", 0, 0, 1, i, i + 10 + i) for i in range(8)]
    stats = latency_stats(records, "read")  # latencies 10..17
    assert stats.p50 == pytest.approx(13.5)
    assert stats.p95 == pytest.approx(16.65)


def test_bytes_transferred():
    records = [rec("read", 0, 0, 4, 0, 10), rec("write", 0, 0, 2, 0, 10)]
    out = bytes_transferred(records)
    assert out == {"read": 256, "write": 128}


def test_fairness_index_bounds():
    assert jain_index([1, 1, 1, 1]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([]) == 1.0


def test_hls_latency_growth_detected():
    result = run_baseline_memcpy(262144, HLS)
    stats = latency_stats(result.records, "read")
    assert stats.growth > 1.5  # queueing behind the single-ID pipeline


class _Streamer(Component):
    def __init__(self, reader, base, total):
        super().__init__("s")
        self.reader = reader
        self.base = base
        self.total = total
        self.requested = 0
        self.received = 0

    def tick(self, cycle):
        if self.requested < self.total and self.reader.request.can_push():
            self.reader.request.push(ReadRequest(self.base + self.requested, 16384))
            self.requested += 16384
        while self.reader.data.can_pop():
            self.received += len(self.reader.data.pop())


def test_tree_arbitration_is_fair():
    """Four identical readers hammering the controller share bandwidth with
    a Jain index near 1."""
    params = AxiParams()
    readers = [Reader(f"r{i}", 64, params) for i in range(4)]
    tb = build_memory_testbench([r.port for r in readers])
    streamers = []
    regions = {}
    for i, reader in enumerate(readers):
        base = i * 0x100_0000
        regions[base] = i
        streamers.append(_Streamer(reader, base, 128 * 1024))
        tb.sim.add(reader)
        tb.sim.add(streamers[-1])
    tb.run(
        500_000,
        until=lambda: all(s.received >= s.total for s in streamers),
    )
    shares = bandwidth_share(tb.monitor.records, lambda addr: addr // 0x100_0000)
    index = jain_index(list(shares.values()))
    assert index > 0.99


def _synthetic_registry():
    from repro.obs.registry import Histogram, MetricRegistry

    reg = MetricRegistry()
    reg.bind("sim/cycles_total", lambda: 1000)
    reg.bind("sim/cycles_skipped", lambda: 750, volatile=True)
    reg.bind("dram/mc/bus_cycles", lambda: 400)
    reg.bind("dram/mc/row_hits", lambda: 90)
    reg.bind("dram/mc/row_misses", lambda: 10)
    reg.bind("noc/root/forwarded_ar", lambda: 5)
    reg.bind("noc/root/forwarded_r", lambda: 20)
    reg.bind("noc/leaf0/forwarded_w", lambda: 8)
    hist = Histogram()
    reg.bind("runtime/server/lock_wait_hist", lambda: hist.dump_value())
    hist.observe(4)
    hist.observe(8)
    return reg


def test_registry_backed_views():
    reg = _synthetic_registry()
    assert dram_bus_utilisation(reg) == pytest.approx(0.4)
    assert dram_row_hit_rate(reg) == pytest.approx(0.9)
    assert skip_fraction(reg) == pytest.approx(0.75)
    assert noc_link_beats(reg) == {"root": 25, "leaf0": 8}
    frame = registry_frame(reg, "runtime")
    assert frame["runtime/server/lock_wait_hist/count"] == 2.0
    assert frame["runtime/server/lock_wait_hist/mean"] == pytest.approx(6.0)
    assert registry_frame(reg)["dram/mc/bus_cycles"] == 400.0


def test_registry_backed_views_empty():
    from repro.obs.registry import MetricRegistry

    reg = MetricRegistry()
    assert dram_bus_utilisation(reg) == 0.0
    assert dram_row_hit_rate(reg) == 0.0
    assert skip_fraction(reg) == 0.0
    assert noc_link_beats(reg) == {}
    assert registry_frame(reg) == {}
