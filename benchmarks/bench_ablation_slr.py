"""Ablation E9: SLR-aware tree network vs a naive flat crossbar.

Section II-B: without explicit floorplanning and buffered crossings, the
same RTL "consistently yielded poorer quality results and failed timing".
We build the 23-core A^3 memory network both ways and compare the structure
and the routability verdict; we also check that the SLR-aware network's
extra latency costs almost nothing in delivered throughput.
"""

import pytest

from repro.core import BeethovenBuild, BuildMode
from repro.farm import Farm, Job
from repro.fpga import routability_report
from repro.kernels.attention import a3_config
from repro.noc import TreeConfig
from repro.platforms import AWSF1Platform
from dataclasses import replace


def _platform(slr_aware: bool) -> object:
    base = AWSF1Platform()
    tree = TreeConfig(
        fanout=base.tree_config.fanout,
        interior_depth=base.tree_config.interior_depth,
        slr_crossing_latency=base.tree_config.slr_crossing_latency,
        slr_aware=slr_aware,
    )
    return replace(base, tree_config=tree)


def _network_outcome(slr_aware: bool) -> dict:
    """Farm job: build the 23-core A^3 network and return the derived facts
    (a build holds a live simulator, so the job ships numbers, not objects)."""
    build = BeethovenBuild(a3_config(23), _platform(slr_aware), BuildMode.Simulation)
    out = {
        "n_nodes": build.design.noc_plan.n_nodes,
        "n_pipes": build.design.noc_plan.n_pipes,
        "max_fanout": build.design.noc_plan.max_fanout,
        "feasible": build.routability.feasible,
        "reasons": list(build.routability.reasons),
    }
    if not slr_aware:
        report = routability_report(
            build.platform.device,
            build.placement,
            interconnect_per_slr=build.resource_report.interconnect_per_slr,
            max_fanout=build.design.noc_plan.max_fanout,
            unbuffered_crossings=build.design.noc_plan.n_crossings
            or len({s for s in build.placement.assignment.values()}) - 1,
            constraints_emitted=False,
        )
        out["feasible"] = report.feasible
        out["reasons"] = list(report.reasons)
    return out


@pytest.fixture(scope="module")
def outcomes():
    farm = Farm(cache=False)
    jobs = [Job(_network_outcome, (aware,), label=f"slr/aware{aware}")
            for aware in (True, False)]
    aware, naive = farm.map(jobs)
    return aware, naive


def test_ablation_slr_structure(outcomes):
    aware, naive = outcomes
    print()
    print(
        f"SLR-aware: {aware['n_nodes']} nodes, {aware['n_pipes']} bridges, "
        f"max fanout {aware['max_fanout']} -> feasible={aware['feasible']}"
    )
    print(
        f"naive flat: {naive['n_nodes']} nodes, max fanout "
        f"{naive['max_fanout']} -> feasible={naive['feasible']}"
        f" ({'; '.join(naive['reasons'])})"
    )
    # The SLR-aware network bounds fanout and buffers crossings; the naive
    # single crossbar has a 92-way arbiter and unbuffered die crossings.
    assert aware["feasible"]
    assert aware["max_fanout"] <= 8
    assert naive["max_fanout"] == 92
    assert not naive["feasible"]


def test_ablation_slr_throughput_cost():
    """Buffered crossings add latency, not bandwidth: throughput holds."""
    job = Job(
        "repro.kernels.attention.table3:run_beethoven_a3",
        (),
        {"n_cores": 4, "queries_per_core": 32},
        label="slr/throughput",
    )
    result = Farm(cache=False).map([job])[0]
    print(f"\n4-core SLR-aware: {result.cycles_per_query_per_core:.0f} cyc/q/core")
    assert result.verified
    assert result.cycles_per_query_per_core < 2.2 * 320
