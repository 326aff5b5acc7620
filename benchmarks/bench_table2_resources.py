"""Table II: resource utilisation of the 23-core A^3 design.

Prints the Table II breakdown (total with shell, Beethoven region,
interconnect, one core, and the per-primitive rows) from the resource model,
and checks the paper's qualitative results: ~94% CLB utilisation that still
passes the routability model, an interconnect costing a fraction of the
fabric despite 92 memory interfaces, and the 80% spill rule producing mixed
BRAM/URAM scratchpad mappings across identical cores.
"""

from collections import Counter

import pytest

from repro.core import BeethovenBuild, BuildMode
from repro.kernels.attention import a3_config
from repro.platforms import AWSF1Platform


@pytest.fixture(scope="module")
def a3_build():
    return BeethovenBuild(a3_config(23), AWSF1Platform(), BuildMode.Synthesis)


def _fmt(name, v, cap=None):
    util = ""
    if cap is not None:
        u = v.utilisation_of(cap)
        util = f"  (clb {u['clb']:.1%}, lut {u['lut']:.1%}, bram {u['bram']:.1%}, uram {u['uram']:.1%})"
    return (
        f"{name:<24} clb={v.clb:9.0f} lut={v.lut:9.0f} reg={v.reg:9.0f} "
        f"bram={v.bram:6.1f} uram={v.uram:6.1f}{util}"
    )


def test_table2_resources(a3_build):
    rep = a3_build.resource_report
    cap = a3_build.platform.device.total_capacity()
    print()
    print(_fmt("total (w/ shell)", rep.with_shell, cap))
    print(_fmt("beethoven", rep.total))
    print(_fmt("interconnect", rep.interconnect))
    core_path = sorted(rep.per_core)[0]
    print(_fmt("core (1)", rep.per_core[core_path]))
    for prim in sorted(rep.per_core_breakdown[core_path]):
        print(_fmt("  " + prim, rep.per_core_breakdown[core_path][prim]))
    print(f"memory interfaces: {a3_build.design.n_memory_interfaces}")

    # The paper's 23-core design: 92 memory interfaces, ~94% CLB with shell.
    assert a3_build.design.n_memory_interfaces == 92
    util = rep.with_shell.utilisation_of(cap)
    assert 0.88 < util["clb"] < 0.97
    # It routes — but only thanks to constraints + spill (Synthesis passed).
    assert a3_build.routability.feasible
    # Interconnect is a modest share of the Beethoven region (paper: the
    # host+memory interconnect awareness costs little for what it buys).
    assert rep.interconnect.lut / rep.total.lut < 0.20
    # The spill rule produced a mixed BRAM/URAM mapping of identical
    # scratchpads (Table II's 15-BRAM vs 16-URAM Value SPs).
    kinds = Counter(
        mem.cell_mapping
        for core in a3_build.design.all_cores()
        for name, mem in core.memories
        if name in ("keys", "values")
    )
    print(f"K/V scratchpad mappings: {dict(kinds)}")
    assert kinds["BRAM"] > 0 and kinds["URAM"] > 0
