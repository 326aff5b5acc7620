"""The AXI monitor must catch protocol violations, not just record traffic."""

import pytest

from repro.axi import (
    ARReq,
    AWReq,
    AxiMonitor,
    AxiParams,
    AxiPort,
    MonitoredAxiPort,
    RBeat,
    WBeat,
)
from repro.sim import SimulationError


def make_port():
    port = AxiPort(AxiParams(), depth=8)
    mon = AxiMonitor("t")
    return port, mon, MonitoredAxiPort(port, mon)


def test_burst_4k_crossing_rejected():
    port, mon, mport = make_port()
    with pytest.raises(ValueError):
        mport.push_ar(0, ARReq(axi_id=0, addr=4096 - 64, length=2))


def test_unaligned_burst_rejected():
    port, mon, mport = make_port()
    with pytest.raises(ValueError):
        mport.push_ar(0, ARReq(axi_id=0, addr=3, length=1))


def test_overlong_burst_rejected():
    params = AxiParams(max_burst_beats=16)
    port = AxiPort(params)
    mport = MonitoredAxiPort(port, AxiMonitor("t"))
    with pytest.raises(ValueError):
        mport.push_aw(0, AWReq(axi_id=0, addr=0, length=17))


def test_same_id_read_reorder_detected():
    port, mon, mport = make_port()
    r1 = ARReq(axi_id=0, addr=0, length=1)
    r2 = ARReq(axi_id=0, addr=64, length=1)
    mport.push_ar(0, r1)
    mport.push_ar(0, r2)
    with pytest.raises(SimulationError, match="reorder"):
        mport.push_r(5, (0, RBeat(b"\0" * 64, last=True, tag=r2.tag)))


def test_beat_count_mismatch_detected():
    port, mon, mport = make_port()
    req = ARReq(axi_id=0, addr=0, length=2)
    mport.push_ar(0, req)
    with pytest.raises(SimulationError, match="beats"):
        mport.push_r(5, (0, RBeat(b"\0" * 64, last=True, tag=req.tag)))


def test_missing_last_on_final_beat_detected():
    port, mon, mport = make_port()
    req = ARReq(axi_id=0, addr=0, length=2)
    mport.push_ar(0, req)
    mport.push_r(5, (0, RBeat(b"\0" * 64, last=False, tag=req.tag)))
    with pytest.raises(SimulationError, match="missing last on final beat"):
        mport.push_r(6, (0, RBeat(b"\0" * 64, last=False, tag=req.tag)))


def test_unknown_read_tag_detected():
    port, mon, mport = make_port()
    with pytest.raises(SimulationError, match="unknown"):
        mport.push_r(0, (0, RBeat(b"", last=True, tag=424242)))


def test_w_without_aw_detected():
    port, mon, mport = make_port()
    with pytest.raises(SimulationError, match="no outstanding AW"):
        mport.push_w(0, WBeat(b"\0" * 64, last=True))


def test_w_burst_overrun_detected():
    port, mon, mport = make_port()
    mport.push_aw(0, AWReq(axi_id=0, addr=0, length=1))
    with pytest.raises(SimulationError, match="overran"):
        mport.push_w(0, WBeat(b"\0" * 64, last=False))  # should have been last


def test_w_early_last_detected():
    port, mon, mport = make_port()
    mport.push_aw(0, AWReq(axi_id=0, addr=0, length=2))
    with pytest.raises(SimulationError, match="before burst complete"):
        mport.push_w(0, WBeat(b"\0" * 64, last=True))


def test_txn_records_capture_latency():
    port, mon, mport = make_port()
    req = ARReq(axi_id=3, addr=0, length=1)
    mport.push_ar(10, req)
    mport.push_r(25, (3, RBeat(b"\0" * 64, last=True, tag=req.tag)))
    rec = mon.completed("read")[0]
    assert rec.issue_cycle == 10
    assert rec.first_data_cycle == 25
    assert rec.latency == 15
    assert mon.outstanding() == 0
