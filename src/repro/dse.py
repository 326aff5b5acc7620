"""Design-space exploration utilities.

The paper's workflow scales a System by editing ``n_cores`` and rebuilding;
these helpers automate the loop: sweep core counts, find the largest count
that still passes the place/route feasibility model, and report which
resource binds — the analysis behind the core-count labels of Figure 6 and
the "limited by BRAM/LUT overutilisation" observations of Section III-B.

Sweeps route through :class:`repro.farm.Farm` when one is supplied: each
design point is a pure function of (config, platform, build mode), so
repeat sweeps are served from the farm's content-addressed result cache.
Every :class:`DesignPoint` carries its own provenance — build wall-time and
whether the cache supplied it.

Two sweep strategies are offered:

* ``"scan"`` (default) — build every requested count; full resource data
  per point, exactly the historical behaviour.
* ``"bisect"`` — locate the feasibility frontier with O(log n) builds when
  it is monotone (feasible up to some N*, infeasible after — the shape the
  paper's resource model produces).  Monotonicity is probed at the
  endpoints: if the smallest count is infeasible the hypothesis is void and
  the sweep falls back to the full scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.build import BeethovenBuild, BuildMode, InfeasibleDesignError
from repro.platforms.base import Platform

ConfigFactory = Callable[[int], object]

#: Importable job reference: its fingerprint names the function, not its bytecode.
EVALUATE_POINT_JOB = "repro.dse:evaluate_point"


@dataclass
class DesignPoint:
    """One evaluated core count, with build provenance."""

    n_cores: int
    feasible: bool
    worst_util: float
    reasons: List[str]
    total_lut: float
    total_bram: float
    total_uram: float
    #: Wall-clock seconds the (simulation-mode) build took to elaborate.
    build_seconds: float = 0.0
    #: True when a farm served this point from its result cache.
    cache_hit: bool = False
    #: "serial" when a farm built it, "cache" when its cache served it.
    worker: str = ""
    #: Farm job fingerprint (cache key), empty outside a farm run.
    fingerprint: str = ""


def evaluate_point(factory: ConfigFactory, n_cores: int, platform: Platform) -> DesignPoint:
    """Build (simulation mode) and score one core count."""
    t0 = time.perf_counter()
    build = BeethovenBuild(factory(n_cores), platform, BuildMode.Simulation)
    report = build.routability
    total = build.resource_report.total
    return DesignPoint(
        n_cores=n_cores,
        feasible=report.feasible if report else True,
        worst_util=report.worst_util if report else 0.0,
        reasons=list(report.reasons) if report else [],
        total_lut=total.lut,
        total_bram=total.bram,
        total_uram=total.uram,
        build_seconds=time.perf_counter() - t0,
    )


def _evaluate_many(
    factory: ConfigFactory,
    counts: Sequence[int],
    platform: Platform,
    farm,
    evaluate,
) -> List[DesignPoint]:
    """Evaluate ``counts`` directly (no farm) or as farm jobs with provenance."""
    if farm is None:
        if callable(evaluate):
            fn = evaluate
        else:
            from repro.farm.job import resolve_fn

            fn = resolve_fn(evaluate)
        return [fn(factory, n, platform) for n in counts]
    from repro.farm import FarmJobError, Job

    jobs = [
        Job(evaluate, (factory, n, platform), label=f"dse/cores{n}")
        for n in counts
    ]
    results = farm.run(jobs)
    failures = [r for r in results if not r.ok]
    if failures:
        raise FarmJobError(failures)
    return [
        replace(
            r.value,
            cache_hit=r.cache_hit,
            worker=r.worker,
            fingerprint=r.fingerprint,
        )
        for r in results
    ]


def sweep_cores(
    factory: ConfigFactory,
    counts,
    platform: Platform,
    farm=None,
    strategy: str = "scan",
    evaluate=EVALUATE_POINT_JOB,
) -> List[DesignPoint]:
    """Evaluate core counts; see the module docstring for the strategies.

    ``farm`` (optional) memoises the builds in its result cache and stamps
    their provenance; either way evaluation runs in this process and the
    points are bit-identical.  ``evaluate`` is the per-point evaluator — an
    importable ``"module:attr"`` string (preferred: its fingerprint names
    the function) or a callable; tests inject fakes here.
    """
    counts = list(counts)
    if strategy == "scan" or len(counts) <= 2:
        return _evaluate_many(factory, counts, platform, farm, evaluate)
    if strategy != "bisect":
        raise ValueError(f"unknown sweep strategy {strategy!r}")

    ordered = sorted(set(int(n) for n in counts))
    # Probe both endpoints (one farm batch: they build in parallel).
    lo_pt, hi_pt = _evaluate_many(
        factory, [ordered[0], ordered[-1]], platform, farm, evaluate
    )
    if not lo_pt.feasible:
        # The monotone-frontier hypothesis is void (or nothing is feasible):
        # fall back to the full scan, which is always correct.
        return _evaluate_many(factory, counts, platform, farm, evaluate)
    if hi_pt.feasible:
        # Everything in range is feasible under the monotone hypothesis.
        return [lo_pt, hi_pt] if len(ordered) > 1 else [lo_pt]

    # Invariant: ordered[lo_i] feasible, ordered[hi_i] infeasible.
    lo_i, hi_i = 0, len(ordered) - 1
    points = {lo_pt.n_cores: lo_pt, hi_pt.n_cores: hi_pt}
    while hi_i - lo_i > 1:
        mid_i = (lo_i + hi_i) // 2
        (mid_pt,) = _evaluate_many(
            factory, [ordered[mid_i]], platform, farm, evaluate
        )
        points[mid_pt.n_cores] = mid_pt
        if mid_pt.feasible:
            lo_i = mid_i
        else:
            hi_i = mid_i
    return [points[n] for n in sorted(points)]


def frontier(points: Sequence[DesignPoint]) -> int:
    """Largest feasible core count among ``points`` (0 when none is)."""
    feasible = [p.n_cores for p in points if p.feasible]
    return max(feasible) if feasible else 0


def limiting_resource(factory: ConfigFactory, n_cores: int, platform: Platform) -> str:
    """The most over-subscribed resource at ``n_cores`` (raw kind name)."""
    build = BeethovenBuild(factory(n_cores), platform, BuildMode.Simulation)
    return _limiting_kind(build.design)


def _limiting_kind(design) -> str:
    """The most over-subscribed resource of an elaborated design."""
    device = design.platform.device
    worst_kind, worst_util = "lut", 0.0
    for slr in range(device.n_slrs):
        free = device.free_capacity(slr)
        load = design.placement.slr_load[slr]
        extra = design.report.interconnect_per_slr.get(slr)
        if extra is not None:
            load = load + extra
        for kind, util in load.utilisation_of(free).items():
            if util > worst_util:
                worst_kind, worst_util = kind, util
    return worst_kind


def max_feasible_cores(
    factory: ConfigFactory,
    platform: Platform,
    limit: int = 64,
) -> Tuple[int, str, Optional[BeethovenBuild]]:
    """Largest feasible core count, its classified limiter, and the build.

    The limiter is classified the way the paper reports it: logic pressure
    (CLB/LUT/FF) as "LUT", memory-tile pressure as "BRAM".  It is read off
    the first infeasible count, ``best + 1``: the search stops just below
    its last rejected design, so that design is reused rather than
    elaborated again.  Only ``best == limit`` never built ``best + 1``.
    """
    best, best_build, rejected = 0, None, None
    lo, hi = 1, limit
    n = 1
    while n <= limit:
        try:
            best_build = BeethovenBuild(factory(n), platform, BuildMode.Synthesis)
            best = n
            lo = n + 1
            n *= 2
        except InfeasibleDesignError as exc:
            rejected = exc.design
            hi = n - 1
            break
    while lo <= hi:
        mid = (lo + hi) // 2
        try:
            best_build = BeethovenBuild(factory(mid), platform, BuildMode.Synthesis)
            best = mid
            lo = mid + 1
        except InfeasibleDesignError as exc:
            rejected = exc.design
            hi = mid - 1
    if rejected is None:
        raw = limiting_resource(factory, best + 1, platform)
    else:
        raw = _limiting_kind(rejected)
    limiter = "LUT" if raw in ("clb", "lut", "reg") else "BRAM"
    return best, limiter, best_build
