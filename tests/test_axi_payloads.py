"""Each AXI beat is built once: hops re-tag the routed ID, never the payload.

The memory controller builds every ``RBeat`` and ``BResp``, the master that
writes builds every ``WBeat``; buffer nodes, SLR pipes and the ID compressor
forward the same payload object beside a new ``axi_id``.  A fault hook that
corrupts a beat is the one other place a payload is built.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.axi import BResp, RBeat, WBeat
from repro.core.build import BeethovenBuild
from repro.faults.plan import AxiNodeFaultHook, FaultPlan, FaultState
from repro.kernels.memcpy import memcpy_config
from repro.noc.axi_node import AxiBufferNode, AxiPipe
from repro.noc.idmap import IdCompressor
from repro.obs.registry import MetricRegistry
from repro.platforms import AWSF1Platform
from repro.runtime import FpgaHandle
from repro.sim import SCHEDULING_MODES

SIZE = 8192
N_CORES = 8


def _count_constructions(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for cls in (RBeat, WBeat, BResp):
        def counting(kind, *args, _new=cls.__new__, **kwargs):
            counts[kind.__name__] += 1
            return _new(kind, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return counts


@pytest.mark.parametrize("mode", SCHEDULING_MODES)
def test_one_payload_per_beat_and_per_burst(mode, monkeypatch):
    """Through a two-level buffer tree, SLR pipes and the ID compressor:
    one ``RBeat`` per read beat, one ``WBeat`` per write beat and one
    ``BResp`` per write burst, under both engines."""
    build = BeethovenBuild(memcpy_config(n_cores=N_CORES), AWSF1Platform(), scheduling=mode)
    design = build.design
    hops = Counter(type(c) for c in design.network.components)
    assert design.noc_plan.depth >= 2 and hops[AxiBufferNode] > 1
    assert hops[AxiPipe] and hops[IdCompressor]
    handle = FpgaHandle(design)
    pattern = random.Random(0).randbytes(SIZE)
    src = handle.malloc(SIZE)
    src.write(pattern)
    handle.copy_to_fpga(src)
    dsts = [handle.malloc(SIZE) for _ in range(N_CORES)]
    counts = _count_constructions(monkeypatch)
    for fut in [
        handle.call("Memcpy", "memcpy", c, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=SIZE)
        for c, dst in enumerate(dsts)
    ]:
        fut.get()
    reads = design.monitor.completed("read")
    writes = design.monitor.completed("write")
    beats = SIZE // design.platform.axi_params.beat_bytes * N_CORES
    assert sum(r.length for r in reads) == sum(w.length for w in writes) == beats
    assert counts == {"RBeat": beats, "WBeat": beats, "BResp": len(writes)}
    for dst in dsts:
        handle.copy_from_fpga(dst)
        assert dst.read() == pattern


def _hook(**rates) -> AxiNodeFaultHook:
    rates = {"corrupt_rate": 0.0, "drop_rate": 0.0, "b_drop_rate": 0.0, **rates}
    state = FaultState(FaultPlan(), MetricRegistry())
    return AxiNodeFaultHook(state, "noc/n0", random.Random(1), budget=1, **rates)


def test_a_corrupting_hook_builds_a_new_payload_and_keeps_the_original():
    beat = RBeat(bytes(64), False, 7)
    hook = _hook(corrupt_rate=1.0)
    bad = hook.filter_r(10, 3, beat)
    assert bad.err and bad.data != beat.data and bad[1:3] == (False, 7)
    assert beat == RBeat(bytes(64), False, 7)  # the shared payload is untouched
    assert hook.filter_r(11, 3, beat) is beat  # budget spent: forwarded as is
    assert [e.detail.split()[0] for e in hook.state.events] == ["id=3"]


def test_a_dropping_hook_returns_no_payload():
    assert _hook(drop_rate=1.0).filter_r(0, 5, RBeat(bytes(64), True)) is None
    hook = _hook(b_drop_rate=1.0)
    assert hook.drop_b(0, 5) and not hook.drop_b(1, 5)
    assert [e.detail for e in hook.state.events] == ["id=5"]
