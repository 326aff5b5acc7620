"""Ablation E8: burst length under TLP (Section III-A).

The paper checked whether HLS's 16-beat bursts alone explained its memcpy
deficit by compiling a 16-beat Beethoven memcpy — and found no degradation,
because TLP across four AXI IDs keeps the controller pipelined even with
short bursts.  This bench sweeps burst length with and without TLP.
"""

import pytest

from repro.farm import Farm, Job

SIZE = 262144


@pytest.fixture(scope="module")
def burst_sweep():
    # The six (burst, tlp) points are independent pure builds, one farm job
    # each.
    grid = [(burst, tlp) for burst in (16, 32, 64) for tlp in (True, False)]
    jobs = [
        Job(
            "repro.baselines.memcpy_experiment:run_beethoven_memcpy",
            (SIZE,),
            {"tlp": tlp, "burst_beats": burst,
             "label": f"b{burst}-{'tlp' if tlp else 'notlp'}"},
            label=f"burst/b{burst}-{'tlp' if tlp else 'notlp'}",
        )
        for burst, tlp in grid
    ]
    return dict(zip(grid, Farm(cache=False).map(jobs)))


def test_ablation_burst_length(burst_sweep):
    print()
    print(f"{'burst':>6} {'tlp GB/s':>9} {'no-tlp GB/s':>12}")
    for burst in (16, 32, 64):
        print(
            f"{burst:>6} {burst_sweep[(burst, True)].gbps:>9.2f} "
            f"{burst_sweep[(burst, False)].gbps:>12.2f}"
        )
    assert all(r.verified for r in burst_sweep.values())
    # Paper: 16-beat Beethoven (with TLP) shows no degradation vs 64-beat.
    degradation = 1 - burst_sweep[(16, True)].gbps / burst_sweep[(64, True)].gbps
    print(f"16-beat TLP degradation vs 64-beat: {degradation:.1%}")
    assert degradation < 0.05
    # Without TLP, short bursts DO hurt: the single-ID pipeline drains.
    no_tlp_degradation = 1 - burst_sweep[(16, False)].gbps / burst_sweep[(64, False)].gbps
    print(f"16-beat no-TLP degradation vs 64-beat: {no_tlp_degradation:.1%}")
    assert no_tlp_degradation > degradation
