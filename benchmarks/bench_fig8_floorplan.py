"""Figure 8: floorplan of the 23-core A^3 accelerator.

Renders the SLR assignment produced by the floorplanner and emits the
placement constraint file.  Checks the paper's shape: all 23 cores placed,
fewest cores on the shell-occupied SLR0, and per-SLR worst utilisation under
the routability limit.
"""

import pytest

from repro.core import BeethovenBuild, BuildMode
from repro.fpga import emit_constraints
from repro.kernels.attention import a3_config
from repro.platforms import AWSF1Platform


@pytest.fixture(scope="module")
def a3_build():
    return BeethovenBuild(a3_config(23), AWSF1Platform(), BuildMode.Synthesis)


def render_floorplan(build) -> str:
    placement = build.placement
    device = build.platform.device
    lines = []
    for slr in reversed(range(device.n_slrs)):
        cores = sorted(
            int(name.rsplit("core", 1)[1]) for name in placement.cores_on(slr)
        )
        shell = " +shell" if slr in device.shell_usage else ""
        free = device.free_capacity(slr)
        util = placement.slr_load[slr].max_utilisation_of(free)
        lines.append(
            f"SLR {slr}{shell:<7} cores {cores}  (worst util {util:.1%})"
        )
    return "\n".join(lines)


def test_fig8_floorplan(a3_build):
    print()
    print(render_floorplan(a3_build))
    constraints = a3_build.emit_constraints()
    print(f"constraint file: {len(constraints.splitlines())} lines")
    placement = a3_build.placement
    device = a3_build.platform.device
    assert len(placement.assignment) == 23
    counts = {slr: len(placement.cores_on(slr)) for slr in range(device.n_slrs)}
    # Shell on SLR0 (and partially SLR1) pushes cores away from it.
    assert counts[0] == min(counts.values())
    assert counts[2] == max(counts.values())
    # Constraint file pins every core to a pblock.
    assert constraints.count("add_cells_to_pblock") == 23
    for slr in range(device.n_slrs):
        assert f"create_pblock pblock_slr{slr}" in constraints
