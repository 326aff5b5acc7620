"""Tests for the design-space exploration utilities."""

import math

from repro.analysis import render_sweep_report, sweep_frame
from repro.dse import (
    DesignPoint,
    evaluate_point,
    frontier,
    limiting_resource,
    max_feasible_cores,
    sweep_cores,
)
from repro.farm import Farm
from repro.kernels.attention import a3_config
from repro.kernels.vecadd import vector_add_config
from repro.platforms import AWSF1Platform, kernel_mode


def _fake_point(n: int, feasible: bool) -> DesignPoint:
    return DesignPoint(
        n_cores=n,
        feasible=feasible,
        worst_util=0.1 * n,
        reasons=[] if feasible else ["LUT overutilised"],
        total_lut=1000.0 * n,
        total_bram=10.0 * n,
        total_uram=0.0,
        build_seconds=0.01,
    )


def _counting_evaluator(frontier_at, calls):
    """Fake evaluator: feasible iff n <= frontier_at; records every build."""

    def evaluate(factory, n, platform):
        calls.append(n)
        return _fake_point(n, n <= frontier_at)

    return evaluate


def test_sweep_reports_monotone_totals():
    platform = AWSF1Platform()
    points = sweep_cores(lambda n: vector_add_config(n), [1, 2, 4], platform)
    luts = [p.total_lut for p in points]
    assert luts == sorted(luts)
    assert all(p.feasible for p in points)


def test_max_feasible_a3_is_at_least_23():
    """The paper shipped 23 A^3 cores; our model must admit them."""
    n, limiter, build = max_feasible_cores(lambda c: a3_config(c), AWSF1Platform(), limit=32)
    assert n >= 23
    assert limiter in ("LUT", "BRAM")
    assert build is not None


def test_infeasible_point_carries_reasons():
    platform = AWSF1Platform()
    big = evaluate_point(lambda n: a3_config(n), 32, platform)
    if not big.feasible:
        assert big.reasons


def test_limiting_resource_returns_kind():
    platform = AWSF1Platform()
    kind = limiting_resource(lambda n: vector_add_config(n), 2, platform)
    assert kind in ("clb", "lut", "reg", "bram", "uram")


def test_bisect_matches_scan_on_monotone_frontier():
    counts = list(range(1, 33))
    scan_calls, bisect_calls = [], []
    scan = sweep_cores(
        None, counts, None, strategy="scan",
        evaluate=_counting_evaluator(7, scan_calls),
    )
    bisect = sweep_cores(
        None, counts, None, strategy="bisect",
        evaluate=_counting_evaluator(7, bisect_calls),
    )
    assert frontier(scan) == frontier(bisect) == 7
    assert len(scan_calls) == 32
    # Two endpoint probes plus a binary search over 32 candidates.
    assert len(bisect_calls) <= 2 + math.ceil(math.log2(len(counts)))
    # Every point bisect did evaluate agrees with the scan's verdict.
    scan_by_n = {p.n_cores: p.feasible for p in scan}
    assert all(p.feasible == scan_by_n[p.n_cores] for p in bisect)


def test_bisect_falls_back_to_scan_when_frontier_not_monotone():
    counts = list(range(1, 17))
    calls = []

    def evaluate(factory, n, platform):
        calls.append(n)
        # Count 1 infeasible but mid-range counts feasible: non-monotone.
        return _fake_point(n, n != 1 and n <= 7)

    points = sweep_cores(None, counts, None, strategy="bisect", evaluate=evaluate)
    # The lo-endpoint probe voids the monotone hypothesis: full scan results.
    assert [p.n_cores for p in points] == counts
    assert frontier(points) == 7
    assert calls[:2] == [1, 16]  # the probes, then the complete rescan
    assert len(calls) == 2 + len(counts)


def test_bisect_all_feasible_evaluates_endpoints_only():
    calls = []
    points = sweep_cores(
        None, list(range(1, 65)), None, strategy="bisect",
        evaluate=_counting_evaluator(1000, calls),
    )
    assert calls == [1, 64]
    assert [p.n_cores for p in points] == [1, 64]
    assert frontier(points) == 64


def test_bisect_matches_scan_on_real_config():
    """Real resource model: the a3 frontier agrees between strategies."""
    platform = AWSF1Platform()
    counts = [16, 20, 24, 28, 32]
    scan = sweep_cores(a3_config, counts, platform, strategy="scan")
    bisect = sweep_cores(a3_config, counts, platform, strategy="bisect")
    assert frontier(bisect) == frontier(scan)


def test_farm_sweep_stamps_provenance_and_feeds_analysis(tmp_path):
    platform = AWSF1Platform()
    counts = [1, 2, 4]

    def run():
        farm = Farm(n_workers=1, cache_dir=str(tmp_path))
        return sweep_cores(vector_add_config, counts, platform, farm=farm)

    first, second = run(), run()
    assert all(not p.cache_hit and p.fingerprint for p in first)
    assert all(p.cache_hit and p.worker == "cache" for p in second)
    # Cache-served points are value-identical to the built ones.
    for a, b in zip(first, second):
        assert (a.n_cores, a.feasible, a.total_lut) == (b.n_cores, b.feasible, b.total_lut)
        assert b.build_seconds == a.build_seconds > 0.0
    frame = sweep_frame(second)
    assert frame["cache_hit_rate"] == 1.0
    assert frame["build_seconds_saved"] > 0.0
    report = render_sweep_report(second)
    assert "cache" in report and "frontier" in report


def test_kernel_mode_preserves_platform_identity():
    base = AWSF1Platform()
    km = kernel_mode(base)
    assert km.host.command_lock_cycles < base.host.command_lock_cycles
    assert km.host.mmio_word_cycles < base.host.mmio_word_cycles
    assert km.clock_mhz == base.clock_mhz
    assert km.device is base.device


def test_sweep_cli_reports_phase_ledger(tmp_path):
    """tools/sweep.py writes the wall-clock phase split into its JSON report:
    fresh builds land in elaborate_seconds, a fully cached rerun in
    cache_seconds."""
    import json
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def run_cores():
        r = subprocess.run(
            [sys.executable, "tools/sweep.py", "cores", "--bench", "gemm",
             "--counts", "1:3", "--workers", "1",
             "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, cwd=repo, timeout=120,
        )
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "out" / "farm-stats.json") as fh:
            return json.load(fh)

    cold = run_cores()
    assert 0 < cold["elaborate_seconds"] <= cold["end_to_end_seconds"]
    assert cold["simulate_seconds"] == 0 and cold["cache_seconds"] == 0
    warm = run_cores()
    assert warm["cache_hits"] == 3 and warm["elaborate_seconds"] == 0
    assert warm["cache_seconds"] == warm["end_to_end_seconds"] > 0
