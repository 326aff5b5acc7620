"""The paper's simulated anchors, pinned at today's values.

Every number the paper credits to Beethoven is beats moving through the
generated AXI tree, so a change to that path that moves one of these moves a
figure: Fig. 5's 4 KB memcpy spans and the Table III A^3 row (EXPERIMENTS.md
has the full comparison).  The two baseline copiers' run cycles are pinned
too, at a whole number of bursts and at a size that is not.  The full Table III row takes a few seconds and
runs under ``-m slow``; tier-1 runs a 4-core, 16-query cut of it.
"""

from __future__ import annotations

import pytest

from repro.baselines.copier import HLS, PURE_HDL
from repro.baselines.memcpy_experiment import (
    run_baseline_memcpy,
    run_beethoven_memcpy,
    timeline,
)
from repro.kernels.attention.table3 import run_beethoven_a3


def _span(rows) -> int:
    return max(r["complete"] for r in rows) - min(r["issue"] for r in rows)


def test_fig5_memcpy_spans():
    """Fig. 5: a 4 KB copy in 16-beat bursts, HLS on one AXI ID against
    Beethoven spreading its bursts over four."""
    assert _span(timeline(run_baseline_memcpy(4096, HLS))) == 161
    assert _span(timeline(run_beethoven_memcpy(4096, tlp=True, burst_beats=16))) == 135


def test_fig5_pure_hdl_span():
    """Fig. 5c: one 64-beat read and one 64-beat write, directly on the
    controller port."""
    assert _span(timeline(run_baseline_memcpy(4096, PURE_HDL))) == 148


def _peak_in_flight(rows, kind: str) -> int:
    """Most ``kind`` bursts between issue and completion at any one cycle."""
    edges = sorted(e for r in rows if r["kind"] == kind
                   for e in ((r["issue"], 1), (r["complete"], -1)))
    depth = peak = 0
    for _, step in edges:
        depth += step
        peak = max(peak, depth)
    return peak


@pytest.mark.parametrize("size, hdl, hls", [(65536, 2317, 2624), (100000, 3509, 4068)])
def test_baseline_memcpy_cycles(size, hdl, hls):
    """Fig. 4's baselines: 64 KiB is a whole number of bursts, 100000 B ends
    on a short one.  The pure-HDL copier keeps one read and one write in
    flight; the HLS copier's 4 KiB FIFO holds four 16-beat reads in flight,
    not the 16 its port allows."""
    pure_hdl, vitis = run_baseline_memcpy(size, PURE_HDL), run_baseline_memcpy(size, HLS)
    assert pure_hdl.verified and vitis.verified
    assert (pure_hdl.cycles, vitis.cycles) == (hdl, hls)
    hdl_rows, hls_rows = timeline(pure_hdl), timeline(vitis)
    assert (_peak_in_flight(hdl_rows, "read"), _peak_in_flight(hdl_rows, "write")) == (1, 1)
    assert _peak_in_flight(hls_rows, "read") == 4


def test_table3_a3_reduced():
    result = run_beethoven_a3(n_cores=4, queries_per_core=16)
    assert result.verified
    assert result.cycles == 6711


@pytest.mark.slow
def test_table3_a3_full_row():
    """Table III's simulated row: 23 A^3 cores, 128 queries each."""
    result = run_beethoven_a3()
    assert result.verified
    assert result.cycles == 46641
    assert round(result.ops_per_second / 1e6, 2) == 15.78
