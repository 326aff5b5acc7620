"""Figure 5: AXI transaction timelines for a 4KB memcpy.

Reproduces the annotated timing diagrams of Section III-A:
(a) HLS — 4 x 16-beat bursts all on AXI ID 0;
(b) Beethoven — 4 x 16-beat bursts spread over four IDs;
(c) hand-written HDL — a single 64-beat burst per direction.

The harness prints the ASCII timelines and checks the paper's structural
observations: HLS uses one ID for everything, Beethoven spreads IDs and its
writes complete earlier relative to the read stream, pure-HDL issues exactly
one read and one write transaction.
"""

import pytest

from repro.baselines.copier import HLS, PURE_HDL
from repro.baselines.memcpy_experiment import (
    render_timeline,
    run_baseline_memcpy,
    run_beethoven_memcpy,
    timeline,
)

SIZE = 4096


@pytest.fixture(scope="module")
def fig5_results():
    return {
        "hls": run_baseline_memcpy(SIZE, HLS),
        "beethoven": run_beethoven_memcpy(SIZE, tlp=True, burst_beats=16),
        "pure-hdl": run_baseline_memcpy(SIZE, PURE_HDL),
    }


def test_fig5_timelines(fig5_results):
    print()
    for name, result in fig5_results.items():
        print(render_timeline(result))
        print()
    hls = timeline(fig5_results["hls"])
    beethoven = timeline(fig5_results["beethoven"])
    hdl = timeline(fig5_results["pure-hdl"])
    # (a) HLS: 4 reads + 4 writes, every transaction on the same AXI ID.
    assert len([r for r in hls if r["kind"] == "read"]) == 4
    assert {r["id"] for r in hls} == {0}
    # (b) Beethoven: 4 reads across distinct AXI IDs.
    b_reads = [r for r in beethoven if r["kind"] == "read"]
    assert len(b_reads) == 4
    assert len({r["id"] for r in b_reads}) == 4
    # "The latency of memory operations grew tremendously for the HLS
    # kernel": same-ID queueing stretches successive HLS reads far more
    # than Beethoven's multi-ID reads.
    def latency_growth(rows):
        lats = [r["complete"] - r["issue"] for r in rows if r["kind"] == "read"]
        return max(lats) / min(lats)

    assert latency_growth(hls) > latency_growth(beethoven)
    # And the whole 4KB copy finishes sooner on Beethoven.
    def span(rows):
        return max(r["complete"] for r in rows) - min(r["issue"] for r in rows)

    assert span(beethoven) < span(hls)
    # Beethoven's writes overlap the read stream ("writes finished early"):
    # its first write is issued before its last read has completed.
    b_writes = [r for r in beethoven if r["kind"] == "write"]
    assert min(w["issue"] for w in b_writes) < max(r["complete"] for r in b_reads)
    # (c) HDL: exactly one 64-beat transaction per direction.
    assert [r["beats"] for r in hdl if r["kind"] == "read"] == [64]
    assert [r["beats"] for r in hdl if r["kind"] == "write"] == [64]
