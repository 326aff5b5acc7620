"""Chaos sweep: the robustness contract under hundreds of seeded schedules.

Asserts that every seeded fault schedule, under both scheduling modes,
terminates bounded in an allowed outcome (correct / typed error /
degraded-but-correct) — never a hang, never silent corruption — and that a
seed's realised fault schedule, final cycle count and outcome are identical
across modes.  The empty plan must be a strict no-op.

Tier-1 runs a seed slice that crosses every scenario x mode x fault kind and
reaches every outcome; the 36-seed population (the >= 200-schedule
acceptance floor) is marked ``slow``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.faults.chaos import (
    GOOD_OUTCOMES,
    MODES,
    SCENARIOS,
    default_plan,
    render_chaos_report,
    run_chaos,
    run_chaos_sweep,
    run_empty_plan_differential,
)

#: 36 seeds x 4 scenarios x 2 modes = 288 seeded schedules (the acceptance
#: floor is 200), run under ``-m slow``.
N_SEEDS = 36

#: The tier-1 slice: seed 1 and 7 draw no fault class (the control group),
#: 0-6 between them activate all six, and 4 quarantines a hung core.
SLICE_SEEDS = range(8)

#: The ``FaultPlan`` rate field of each fault class ``default_plan`` draws.
FAULT_KINDS = (
    "dram_read_flip_rate", "axi_r_corrupt_rate", "axi_r_drop_rate",
    "axi_b_drop_rate", "mmio_resp_drop_rate", "core_hang_rate",
)


@pytest.fixture(scope="module")
def sweep():
    return run_chaos_sweep(SLICE_SEEDS)


def test_sweep_meets_schedule_count(sweep):
    """The slice crosses every scenario x mode x fault kind."""
    assert len(sweep) == len(SLICE_SEEDS) * len(SCENARIOS) * len(MODES)
    assert {(o.scenario, o.mode) for o in sweep} == {
        (sc, m) for sc in SCENARIOS for m in MODES
    }
    drawn = {
        kind for seed in SLICE_SEEDS for kind in FAULT_KINDS
        if getattr(default_plan(seed), kind) > 0
    }
    assert drawn == set(FAULT_KINDS)


@pytest.mark.slow
def test_full_population_holds_the_contract():
    population = run_chaos_sweep(range(N_SEEDS))
    assert len(population) == N_SEEDS * len(SCENARIOS) * len(MODES) >= 200
    test_contract_no_hangs_no_silent_corruption(population)
    test_recovery_paths_actually_exercised(population)
    test_outcome_identical_across_scheduling_modes(population)


#: sha256 of the slice's outcome records.  Cross-mode and rerun identity
#: both survive a change to a scenario's size, plan or call order; this pin
#: does not.
SLICE_DIGEST = "ac8c33fac642180819b50bf144d7fddb308a9db228a011b711ca0eac76ac309c"


def test_slice_outcomes_are_pinned(sweep):
    records = json.dumps([asdict(o) for o in sweep], sort_keys=True)
    assert hashlib.sha256(records.encode()).hexdigest() == SLICE_DIGEST


def test_contract_no_hangs_no_silent_corruption(sweep):
    violations = [o for o in sweep if o.outcome not in GOOD_OUTCOMES]
    assert not violations, render_chaos_report(sweep)
    # Termination was bounded by construction (every run returned); make the
    # bound visible: no run consumed anywhere near its cycle budget.
    assert max(o.cycles for o in sweep) < 400_000


def test_recovery_paths_actually_exercised(sweep):
    """The sweep population must contain all three allowed outcomes — a
    sweep that never recovers (or never faults) proves nothing."""
    outcomes = {o.outcome for o in sweep}
    assert outcomes == set(GOOD_OUTCOMES)
    assert any(o.retries > 0 and o.outcome == "degraded" for o in sweep)
    assert any(o.quarantines > 0 for o in sweep)
    assert any(o.n_faults == 0 and o.outcome == "ok" for o in sweep)


def test_outcome_identical_across_scheduling_modes(sweep):
    by_key = {}
    for o in sweep:
        by_key.setdefault((o.scenario, o.seed), []).append(o)
    for (scenario, seed), group in by_key.items():
        assert len(group) == len(MODES)
        ref = group[0]
        for other in group[1:]:
            assert (
                other.outcome,
                other.cycles,
                other.n_faults,
                other.fingerprint,
            ) == (ref.outcome, ref.cycles, ref.n_faults, ref.fingerprint), (
                f"{scenario} seed={seed}: {ref.mode} vs {other.mode} diverged"
            )


def test_same_seed_bit_identical_rerun():
    a = run_chaos("memcpy", "compiled", 2)
    b = run_chaos("memcpy", "compiled", 2)
    assert asdict(a) == asdict(b)
    assert a.n_faults > 0  # seed 2 is known to inject


def test_default_plan_is_pure_function_of_seed():
    assert default_plan(7) == default_plan(7)
    plans = {default_plan(s) for s in range(20)}
    assert len(plans) > 1  # the sweep population is not degenerate


def test_exported_sample_is_the_sweeps_own_run(tmp_path):
    """``tools/chaos.py`` exports the memcpy run it names: seed 3's fault
    log has the fingerprint the sweep recorded for it."""
    path = Path(__file__).resolve().parents[1] / "tools" / "chaos.py"
    spec = importlib.util.spec_from_file_location("chaos_tool", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool._export_sample(tmp_path, 3, "compiled")
    exported = json.loads((tmp_path / "sample-faults.json").read_text())
    outcome = run_chaos("memcpy", "compiled", 3)
    assert outcome.n_faults == len(exported["events"]) > 0
    assert exported["fingerprint"] == outcome.fingerprint


@pytest.mark.parametrize("mode", MODES)
def test_empty_plan_is_strict_noop(mode):
    d = run_empty_plan_differential(mode)
    assert d["data_ok"]
    assert d["fault_metrics_nonzero"] == {}
    assert d["identical"], (
        f"empty FaultPlan perturbed {mode}: cycles={d['cycles']} "
        f"mismatched={d['mismatched_keys'][:12]}"
    )
