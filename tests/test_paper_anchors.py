"""The paper's simulated anchors, pinned at today's values.

Every number the paper credits to Beethoven is beats moving through the
generated AXI tree, so a change to that path that moves one of these moves a
figure: Fig. 5's 4 KB memcpy spans and the Table III A^3 row (EXPERIMENTS.md
has the full comparison).  The full Table III row takes a few seconds and
runs under ``-m slow``; tier-1 runs a 4-core, 16-query cut of it.
"""

from __future__ import annotations

import pytest

from repro.baselines.memcpy_experiment import run_beethoven_memcpy, run_hls_memcpy, timeline
from repro.kernels.attention.table3 import run_beethoven_a3


def _span(rows) -> int:
    return max(r["complete"] for r in rows) - min(r["issue"] for r in rows)


def test_fig5_memcpy_spans():
    """Fig. 5: a 4 KB copy in 16-beat bursts, HLS on one AXI ID against
    Beethoven spreading its bursts over four."""
    assert _span(timeline(run_hls_memcpy(4096, burst_beats=16))) == 161
    assert _span(timeline(run_beethoven_memcpy(4096, tlp=True, burst_beats=16))) == 135


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
