"""Golden costing pin: the composer's numbers for eight design points.

Every figure a costed build reports — per-core resources and their
primitive breakdown, interconnect and command costs, totals with and without
the shell, the SLR placement, each memory's cell mapping (or SRAM macro
plan), the mapper's spills and infeasible list, the routability verdict and
the memory network's statistics — is compared exactly (``==``, floats
included) against ``data/costing_pin.json``.  A change to how elaboration is
organised must not move any of them; a change to the cost model itself
regenerates the file (``python tests/test_costing_pin.py --write``) and says
so.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from repro.core import BeethovenBuild, BuildMode
from repro.kernels.attention import a3_config
from repro.kernels.machsuite.nw import nw_config
from repro.kernels.memcpy import memcpy_config
from repro.kernels.vecadd import vector_add_config
from repro.platforms import (
    Asap7Platform,
    AWSF1Platform,
    SimulationPlatform,
    multi_die_platform,
)
from repro.serve.scenarios import hetero_build

PIN = os.path.join(os.path.dirname(__file__), "data", "costing_pin.json")


def _flat_multi_die():
    base = multi_die_platform(4)
    return dataclasses.replace(
        base, tree_config=dataclasses.replace(base.tree_config, slr_aware=False)
    )


DESIGNS = {
    # Table II: 92 memory interfaces, BRAM+URAM spill.
    "a3x23_f1": lambda: BeethovenBuild(a3_config(23), AWSF1Platform(), BuildMode.Synthesis),
    "memcpy48_f1": lambda: BeethovenBuild(memcpy_config(48), AWSF1Platform()),
    "nw4_f1": lambda: BeethovenBuild(nw_config(n_cores=4), AWSF1Platform()),
    "hetero": hetero_build,
    "vecadd3_sim": lambda: BeethovenBuild(vector_add_config(3), SimulationPlatform()),
    # ASIC: memories compile to SRAM macro plans.
    "vecadd2_asap7": lambda: BeethovenBuild(vector_add_config(2), Asap7Platform()),
    "memcpy4_4die": lambda: BeethovenBuild(memcpy_config(4), multi_die_platform(4)),
    "memcpy4_4die_flat": lambda: BeethovenBuild(memcpy_config(4), _flat_multi_die()),
}


def _vec(v):
    return [v.clb, v.lut, v.reg, v.bram, v.uram]


def _macro(plan):
    if plan is None:
        return None
    return [plan.macro.name, plan.lanes, plan.banks, plan.requested_bits]


def costing_record(build) -> dict:
    """Every costed figure of ``build``, as plain JSON-able data."""
    d = build.design
    rep = d.report
    record = {
        "per_core": {p: _vec(v) for p, v in rep.per_core.items()},
        "per_core_breakdown": {
            p: {k: _vec(v) for k, v in b.items()}
            for p, b in rep.per_core_breakdown.items()
        },
        "interconnect": _vec(rep.interconnect),
        "interconnect_per_slr": {
            str(s): _vec(v) for s, v in rep.interconnect_per_slr.items()
        },
        "command": _vec(rep.command),
        "total": _vec(rep.total),
        "with_shell": _vec(rep.with_shell),
        "placement": None,
        "memories": {
            f"{ecore.path}/{name}": [mem.cell_mapping, _macro(mem.macro_plan)]
            for ecore in d.all_cores()
            for name, mem in ecore.memories
        },
        "macro_plans": [[path, _macro(plan)] for path, plan in d.macro_plans],
        "mapper": None,
        "routability": dataclasses.asdict(d.routability),
        "n_memory_interfaces": d.n_memory_interfaces,
        "network": None,
    }
    if d.placement is not None:
        record["placement"] = {
            "assignment": dict(d.placement.assignment),
            "slr_load": {str(s): _vec(v) for s, v in d.placement.slr_load.items()},
        }
    if d.memcell_mapper is not None:
        record["mapper"] = {
            "spills": d.memcell_mapper.spills,
            "infeasible": list(d.memcell_mapper.infeasible),
        }
    net = d.noc_plan
    if net is not None:
        record["network"] = {
            "n_nodes": net.n_nodes,
            "n_pipes": net.n_pipes,
            "n_crossings": net.n_crossings,
            "depth": net.depth,
            "max_fanout": net.max_fanout,
            "nodes_per_slr": {str(s): n for s, n in net.nodes_per_slr.items()},
        }
    # JSON round trip: int keys become strings, tuples lists.
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden():
    with open(PIN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", DESIGNS)
def test_costing_matches_the_golden_pin(name, golden):
    assert costing_record(DESIGNS[name]()) == golden[name]


def test_the_pin_covers_what_it_claims(golden):
    """The designs exercise the paths the pin is meant to hold still."""
    assert set(golden) == set(DESIGNS)
    table2 = golden["a3x23_f1"]
    assert table2["n_memory_interfaces"] == 92
    assert {m for m, _ in table2["memories"].values()} >= {"BRAM", "URAM"}
    assert table2["mapper"]["spills"] > 0
    assert golden["vecadd2_asap7"]["macro_plans"]
    assert golden["hetero"]["network"] is None
    assert golden["memcpy4_4die"]["network"]["n_pipes"] > 0
    assert golden["memcpy4_4die_flat"]["network"]["n_pipes"] == 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_costing_pin.py --write")
    os.makedirs(os.path.dirname(PIN), exist_ok=True)
    with open(PIN, "w") as f:
        json.dump({name: costing_record(make()) for name, make in DESIGNS.items()},
                  f, indent=1, sort_keys=True)
        f.write("\n")
