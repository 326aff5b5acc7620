"""Tests for the design-space exploration utilities."""

import math
from collections import Counter

import repro.core.build as build_module
import repro.dse as dse
from repro.dse import (
    DesignPoint,
    evaluate_point,
    frontier,
    max_feasible_cores,
    render_sweep_report,
    sweep_cores,
    sweep_frame,
)
from repro.farm import Farm
from repro.kernels.attention import a3_config
from repro.kernels.machsuite.fig6 import CONFIG_FACTORIES, fig6_row
from repro.kernels.machsuite.workloads import BEETHOVEN_CLOCK_MHZ
from repro.kernels.vecadd import vector_add_config
from repro.platforms import AWSF1Platform, kernel_mode


def _fake_point(n: int, feasible: bool, limiter: str) -> DesignPoint:
    return DesignPoint(
        n_cores=n,
        feasible=feasible,
        worst_util=0.1 * n,
        reasons=[] if feasible else ["LUT overutilised"],
        total_lut=1000.0 * n,
        total_bram=10.0 * n,
        total_uram=0.0,
        limiter=limiter,
        build_seconds=0.01,
    )


def _fake_evaluator(monkeypatch, feasible, limiter=lambda n: "lut"):
    """Replace ``repro.dse.evaluate_point``: count ``n`` is feasible iff
    ``feasible(n)`` and bound by ``limiter(n)``; returns the list of every
    count evaluated, in order."""
    calls = []

    def evaluate(factory, n, platform):
        calls.append(n)
        return _fake_point(n, feasible(n), limiter(n))

    monkeypatch.setattr(dse, "evaluate_point", evaluate)
    return calls


def _classified(raw: str) -> str:
    return "LUT" if raw in ("clb", "lut", "reg") else "BRAM"


def test_sweep_reports_monotone_totals():
    platform = AWSF1Platform()
    points = sweep_cores(lambda n: vector_add_config(n), [1, 2, 4], platform)
    luts = [p.total_lut for p in points]
    assert luts == sorted(luts)
    assert all(p.feasible for p in points)


def test_max_feasible_a3_is_at_least_23():
    """The paper shipped 23 A^3 cores; our model must admit them."""
    n, limiter = max_feasible_cores(lambda c: a3_config(c), AWSF1Platform(), limit=32)
    assert n >= 23
    assert limiter in ("LUT", "BRAM")


def test_infeasible_point_carries_reasons():
    platform = AWSF1Platform()
    big = evaluate_point(lambda n: a3_config(n), 32, platform)
    if not big.feasible:
        assert big.reasons


def test_design_point_names_its_limiting_resource():
    platform = AWSF1Platform()
    point = evaluate_point(lambda n: vector_add_config(n), 2, platform)
    assert point.limiter in ("clb", "lut", "reg", "bram", "uram")


def _count_elaborations(monkeypatch):
    counter = Counter()
    elaborate = build_module.ElaboratedDesign

    def counting(*args, **kwargs):
        counter["n"] += 1
        return elaborate(*args, **kwargs)

    monkeypatch.setattr(build_module, "ElaboratedDesign", counting)
    return counter


def test_fig6_rows_elaborate_the_boundary_design_once(monkeypatch):
    """The limiter is read off the point the search already evaluated at
    ``best + 1``; each row is unchanged and elaborates no design twice."""
    counter = _count_elaborations(monkeypatch)
    rows, builds = {}, {}
    for bench in CONFIG_FACTORIES:
        counter.clear()
        rows[bench] = fig6_row(bench, max_cores=48)
        builds[bench] = counter["n"]
    assert {b: (r.n_cores, r.limiter) for b, r in rows.items()} == {
        "gemm": (9, "LUT"),
        "nw": (29, "BRAM"),
        "stencil2d": (29, "BRAM"),
        "stencil3d": (41, "BRAM"),
        "md-knn": (26, "LUT"),
    }
    # The bisect over 1..48 plus one simulate_measured build.
    assert builds == {"gemm": 8, "nw": 9, "stencil2d": 9, "stencil3d": 9, "md-knn": 9}
    # The limiter agrees with a fresh evaluation of the boundary count.
    platform = AWSF1Platform(clock_mhz=BEETHOVEN_CLOCK_MHZ)
    for bench, row in rows.items():
        boundary = evaluate_point(CONFIG_FACTORIES[bench], row.n_cores + 1, platform)
        assert row.limiter == _classified(boundary.limiter)


def test_search_capped_at_limit_elaborates_its_boundary(monkeypatch):
    """At ``best == limit`` the search never built ``best + 1``."""
    counter = _count_elaborations(monkeypatch)
    factory, platform = CONFIG_FACTORIES["gemm"], AWSF1Platform()
    n, limiter = max_feasible_cores(factory, platform, limit=4)
    assert n == 4
    assert counter["n"] == 3  # the endpoints 1 and 4, then the boundary 5
    assert limiter == _classified(evaluate_point(factory, 5, platform).limiter)


def test_search_reads_the_limiter_of_its_boundary_point(monkeypatch):
    """The search stops with ``best + 1`` evaluated and classifies its
    limiter; no count is evaluated twice."""
    calls = _fake_evaluator(
        monkeypatch, lambda n: n <= 11, lambda n: "bram" if n == 12 else "lut"
    )
    assert max_feasible_cores(None, None, limit=48) == (11, "BRAM")
    assert 12 in calls and len(calls) == len(set(calls))
    assert len(calls) <= 2 + math.ceil(math.log2(48))


def test_search_with_count_one_infeasible_returns_zero(monkeypatch):
    """Nothing fits: the count is 0 and the limiter is that of count 1."""
    _fake_evaluator(
        monkeypatch, lambda n: False, lambda n: "uram" if n == 1 else "lut"
    )
    assert max_feasible_cores(None, None, limit=6) == (0, "BRAM")


def test_bisect_matches_scan_on_monotone_frontier(monkeypatch):
    counts = list(range(1, 33))
    calls = _fake_evaluator(monkeypatch, lambda n: n <= 7)
    scan = sweep_cores(None, counts, None, strategy="scan")
    scan_calls = list(calls)
    calls.clear()
    bisect = sweep_cores(None, counts, None, strategy="bisect")
    bisect_calls = calls
    assert frontier(scan) == frontier(bisect) == 7
    assert len(scan_calls) == 32
    # Two endpoint probes plus a binary search over 32 candidates.
    assert len(bisect_calls) <= 2 + math.ceil(math.log2(len(counts)))
    # Every point bisect did evaluate agrees with the scan's verdict.
    scan_by_n = {p.n_cores: p.feasible for p in scan}
    assert all(p.feasible == scan_by_n[p.n_cores] for p in bisect)


def test_bisect_falls_back_to_scan_when_frontier_not_monotone(monkeypatch):
    counts = list(range(1, 17))
    # Count 1 infeasible but mid-range counts feasible: non-monotone.
    calls = _fake_evaluator(monkeypatch, lambda n: n != 1 and n <= 7)
    points = sweep_cores(None, counts, None, strategy="bisect")
    # The lo-endpoint probe voids the monotone hypothesis: full scan results.
    assert [p.n_cores for p in points] == counts
    assert frontier(points) == 7
    assert calls[:2] == [1, 16]  # the probes, then the complete rescan
    assert len(calls) == 2 + len(counts)


def test_bisect_all_feasible_evaluates_endpoints_only(monkeypatch):
    calls = _fake_evaluator(monkeypatch, lambda n: True)
    points = sweep_cores(None, list(range(1, 65)), None, strategy="bisect")
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
        farm = Farm(cache_dir=str(tmp_path))
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
             "--counts", "1:3",
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
