"""Ablation E10: the 80% memory-cell spill rule (Section II-B).

Beethoven's Xilinx backend monitors per-SLR BRAM/URAM utilisation during
generation and maps to the alternative cell type past 80% utilisation.  The
paper credits this with relieving the congestion that would otherwise have
sunk the 96%-utilised A^3 build.  We map a BRAM-hungry design with the rule
on and off and compare the outcome.
"""

import pytest

from repro.farm import Farm, Job
from repro.fpga import MemcellMapper, make_vu9p_aws_f1
from repro.hdl.ir import HdlMemory


def _demand(n_mems: int):
    """A stream of identical BRAM-preferring scratchpads on one SLR."""
    return [HdlMemory(f"sp{i}", 512, 640) for i in range(n_mems)]


def _mapping_outcome(spill: bool):
    """Farm job: map the full demand with the spill rule on or off."""
    device = make_vu9p_aws_f1()
    mapper = MemcellMapper(device, spill_enabled=spill)
    mems = _demand(52)  # 52 x 15 BRAM = 780 > one SLR's 720 BRAM
    for mem in mems:
        mapper.map_memory(mem, slr=2, path=mem.name)
    return mapper, mems


@pytest.fixture(scope="module")
def mapping_outcomes():
    # Two independent mapping runs, one farm job each.
    farm = Farm(cache=False)
    jobs = [Job(_mapping_outcome, (spill,), label=f"memcells/spill{spill}")
            for spill in (True, False)]
    return dict(zip((True, False), farm.map(jobs)))


def test_ablation_memcell_spill(mapping_outcomes):
    for spill, (mapper, mems) in mapping_outcomes.items():
        kinds = {}
        for mem in mems:
            kinds[mem.cell_mapping] = kinds.get(mem.cell_mapping, 0) + 1
        usage = mapper.usage[2]
        print(
            f"\nspill={'on' if spill else 'off'}: mappings={kinds}, "
            f"bram={usage.bram}, uram={usage.uram}, "
            f"feasible={mapper.feasible}, spills={mapper.spills}"
        )
    on_mapper, on_mems = mapping_outcomes[True]
    off_mapper, off_mems = mapping_outcomes[False]
    # With the rule: a mixed mapping that fits the device.
    assert on_mapper.feasible
    on_kinds = {m.cell_mapping for m in on_mems}
    assert on_kinds == {"BRAM", "URAM"}
    assert on_mapper.usage[2].bram <= 0.81 * 720
    # Without it: everything piles onto BRAM until the supply is exceeded.
    assert not off_mapper.feasible or off_mapper.usage[2].bram > 720
