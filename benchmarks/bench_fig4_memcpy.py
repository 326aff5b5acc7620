"""Figure 4: Memcpy microbenchmark throughput on the AWS F1 model.

Reproduces the comparison of Section III-A: Vitis-HLS-style, Beethoven,
Beethoven without TLP, and hand-written HDL, all against the same DRAM
model.  Expected shape (see EXPERIMENTS.md): Beethoven, Beethoven-NoTLP and
pure-HDL within a few percent of each other; HLS clearly behind.
"""

import pytest

from repro.baselines.memcpy_experiment import run_all

SIZES = [65536, 262144, 1048576]


@pytest.fixture(scope="module")
def fig4_results():
    return {size: run_all(size) for size in SIZES}


def test_fig4_memcpy(fig4_results):
    print()
    print(f"{'size':>9} {'hls':>7} {'beethoven':>10} {'no-tlp':>8} {'pure-hdl':>9}  (GB/s)")
    for size, res in fig4_results.items():
        print(
            f"{size:>9} {res['hls'].gbps:>7.2f} {res['beethoven'].gbps:>10.2f} "
            f"{res['beethoven-notlp'].gbps:>8.2f} {res['pure-hdl'].gbps:>9.2f}"
        )
    big = fig4_results[SIZES[-1]]
    # Functional: every implementation copied the bytes correctly.
    assert all(r.verified for res in fig4_results.values() for r in res.values())
    # Shape: the three long-burst implementations are within 10% of each
    # other; single-ID short-burst HLS is clearly behind all of them.
    beethoven = big["beethoven"].gbps
    assert abs(big["beethoven-notlp"].gbps - beethoven) / beethoven < 0.10
    assert abs(big["pure-hdl"].gbps - beethoven) / beethoven < 0.10
    assert big["hls"].gbps < 0.92 * min(
        beethoven, big["beethoven-notlp"].gbps, big["pure-hdl"].gbps
    )
