"""Model behaviour read off AXI monitor records: HLS queueing growth and
tree-arbitration fairness, plus the Jain index that scores the latter."""

import pytest

from repro.axi import AxiParams
from repro.baselines.copier import HLS
from repro.baselines.memcpy_experiment import run_baseline_memcpy
from repro.serve.loadgen import jain_index
from repro.memory import Reader, ReadRequest
from repro.sim import Component
from repro.testing import build_memory_testbench


def test_fairness_index_bounds():
    assert jain_index([1, 1, 1, 1]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_index([]) == 1.0


def test_hls_latency_growth_detected():
    result = run_baseline_memcpy(262144, HLS)
    reads = sorted(
        (r for r in result.records if r.kind == "read" and r.complete_cycle is not None),
        key=lambda r: r.issue_cycle,
    )
    # Worst read latency over the mean of the first-issued quarter.
    quartile = max(len(reads) // 4, 1)
    head_mean = sum(r.latency for r in reads[:quartile]) / quartile
    growth = max(r.latency for r in reads) / head_mean
    assert growth > 1.5  # queueing behind the single-ID pipeline


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
    for i, reader in enumerate(readers):
        base = i * 0x100_0000
        streamers.append(_Streamer(reader, base, 128 * 1024))
        tb.sim.add(reader)
        tb.sim.add(streamers[-1])
    tb.run(
        500_000,
        until=lambda: all(s.received >= s.total for s in streamers),
    )
    shares = {}
    for r in tb.monitor.records:
        if r.complete_cycle is not None:
            region = r.addr // 0x100_0000
            shares[region] = shares.get(region, 0) + r.length * 64
    index = jain_index(list(shares.values()))
    assert index > 0.99
