"""Elaboration internals: reports, networks, HDL annotation consistency."""

import pytest

from repro.core import BeethovenBuild, BuildMode
from repro.fpga.device import ResourceVector
from repro.kernels.attention import a3_config
from repro.kernels.vecadd import vector_add_config
from repro.platforms import AWSF1Platform, SimulationPlatform


def test_report_totals_are_sum_of_parts():
    build = BeethovenBuild(vector_add_config(3), AWSF1Platform())
    rep = build.resource_report
    core_sum = ResourceVector()
    for vec in rep.per_core.values():
        core_sum = core_sum + vec
    expected = core_sum + rep.interconnect + rep.command
    assert rep.total.lut == pytest.approx(expected.lut)
    assert rep.total.bram == pytest.approx(expected.bram)


def test_per_core_breakdown_sums_to_core():
    build = BeethovenBuild(vector_add_config(1), AWSF1Platform())
    rep = build.resource_report
    (path,) = rep.per_core
    total = ResourceVector()
    for vec in rep.per_core_breakdown[path].values():
        total = total + vec
    assert rep.per_core[path].lut == pytest.approx(total.lut)


def test_network_stats_match_design_size():
    build = BeethovenBuild(a3_config(6), AWSF1Platform())
    net = build.design.noc_plan
    assert build.design.n_memory_interfaces == 24  # 4 per core
    assert net.n_nodes >= 3
    assert net.max_fanout <= build.platform.tree_config.fanout


def test_memories_annotated_after_mapping():
    build = BeethovenBuild(a3_config(2), AWSF1Platform())
    for ecore in build.design.all_cores():
        for _name, mem in ecore.memories:
            assert mem.cell_mapping in ("BRAM", "URAM", "LUTRAM")


def test_hdl_tree_reflects_placement():
    build = BeethovenBuild(a3_config(4), AWSF1Platform())
    top = build.hdl_top()
    slrs = [
        mod.attrs["slr"]
        for mod in top.walk()
        if mod.name.startswith("core_") and "slr" in mod.attrs
    ]
    assert len(slrs) == 4
    assert set(slrs) <= {0, 1, 2}


def test_single_die_platform_skips_constraints():
    build = BeethovenBuild(vector_add_config(1), SimulationPlatform())
    # SimulationPlatform carries the 3-SLR VU9P; use an ASIC target for the
    # no-constraints path instead.
    from repro.platforms import Asap7Platform

    asic = BeethovenBuild(vector_add_config(1), Asap7Platform())
    assert "no placement constraints" in asic.emit_constraints()


def test_synthesis_mode_rejects_oversize_design():
    from repro.core import InfeasibleDesignError

    with pytest.raises(InfeasibleDesignError):
        BeethovenBuild(a3_config(40), AWSF1Platform(), BuildMode.Synthesis)


def test_a_design_without_axi_masters_has_no_memory_interfaces():
    from repro.serve.scenarios import hetero_build

    build = hetero_build()
    assert build.design.n_memory_interfaces == 0
    assert build.design.noc_plan is None
    assert "memory network" not in build.summary()


def test_a_core_failing_after_the_template_fails_at_instantiation():
    """A System is N identical cores: the plan constructs core 0 only, so a
    constructor that fails for a later core fails when the design is
    instantiated, not when it is costed."""
    import dataclasses

    base = vector_add_config(3)

    def construct(ctx):
        if ctx.core_id == 2:
            raise RuntimeError("core 2 refuses")
        return base.module_constructor(ctx)

    build = BeethovenBuild(
        dataclasses.replace(base, module_constructor=construct), AWSF1Platform()
    )
    assert len(build.resource_report.per_core) == 3
    with pytest.raises(RuntimeError, match="core 2 refuses"):
        build.design.sim
