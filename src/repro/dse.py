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

:func:`max_feasible_cores` is the bisect over ``1..limit``; it names the
binding resource from the :attr:`DesignPoint.limiter` of the first
infeasible count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.build import BeethovenBuild, BuildMode
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
    #: Most over-subscribed resource kind ("clb", "lut", "reg", "bram" or
    #: "uram"); "" on a platform without a device model.
    limiter: str
    #: Wall-clock seconds the (simulation-mode) build took to elaborate.
    build_seconds: float = 0.0
    #: True when a farm served this point from its result cache.
    cache_hit: bool = False
    #: "serial" when a farm built it, "cache" when its cache served it.
    worker: str = ""
    #: Farm job fingerprint (cache key), empty outside a farm run.
    fingerprint: str = ""


def evaluate_point(factory: ConfigFactory, n_cores: int, platform: Platform) -> DesignPoint:
    """Build (simulation mode) and score one core count, and name the
    resource that binds it while the design is alive."""
    t0 = time.perf_counter()
    design = BeethovenBuild(factory(n_cores), platform, BuildMode.Simulation).design
    report = design.routability
    total = design.report.total
    device = platform.device
    limiter = ""
    if device is not None and design.placement is not None:
        limiter, worst = "lut", 0.0
        for slr in range(device.n_slrs):
            load = design.placement.slr_load[slr]
            extra = design.report.interconnect_per_slr.get(slr)
            if extra is not None:
                load = load + extra
            for kind, util in load.utilisation_of(device.free_capacity(slr)).items():
                if util > worst:
                    limiter, worst = kind, util
    return DesignPoint(
        n_cores=n_cores,
        feasible=report.feasible if report else True,
        worst_util=report.worst_util if report else 0.0,
        reasons=list(report.reasons) if report else [],
        total_lut=total.lut,
        total_bram=total.bram,
        total_uram=total.uram,
        limiter=limiter,
        build_seconds=time.perf_counter() - t0,
    )


def _evaluate_many(
    factory: ConfigFactory,
    counts: Sequence[int],
    platform: Platform,
    farm,
) -> List[DesignPoint]:
    """Evaluate ``counts`` directly (no farm) or as farm jobs with provenance."""
    if farm is None:
        return [evaluate_point(factory, n, platform) for n in counts]
    from repro.farm import FarmJobError, Job

    jobs = [
        Job(EVALUATE_POINT_JOB, (factory, n, platform), label=f"dse/cores{n}")
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


def _bisect(
    factory: ConfigFactory, counts: List[int], platform: Platform, farm
) -> List[DesignPoint]:
    """The frontier search: probe both ends of ``counts``, then bisect.

    Bisection assumes a monotone frontier (feasible up to some N*,
    infeasible after).  An infeasible smallest count voids that hypothesis,
    and the search falls back to evaluating every count.  When the search
    bisects, the result holds the largest feasible count and the next count
    after it.
    """
    if len(counts) <= 2:
        return _evaluate_many(factory, counts, platform, farm)
    ordered = sorted(set(int(n) for n in counts))
    # Probe both endpoints (one farm batch).
    lo_pt, hi_pt = _evaluate_many(
        factory, [ordered[0], ordered[-1]], platform, farm
    )
    if not lo_pt.feasible:
        # The monotone-frontier hypothesis is void (or nothing is feasible):
        # fall back to the full scan, which is always correct.
        return _evaluate_many(factory, counts, platform, farm)
    if hi_pt.feasible:
        # Everything in range is feasible under the monotone hypothesis.
        return [lo_pt, hi_pt] if len(ordered) > 1 else [lo_pt]

    # Invariant: ordered[lo_i] feasible, ordered[hi_i] infeasible.
    lo_i, hi_i = 0, len(ordered) - 1
    points = {lo_pt.n_cores: lo_pt, hi_pt.n_cores: hi_pt}
    while hi_i - lo_i > 1:
        mid_i = (lo_i + hi_i) // 2
        (mid_pt,) = _evaluate_many(factory, [ordered[mid_i]], platform, farm)
        points[mid_pt.n_cores] = mid_pt
        if mid_pt.feasible:
            lo_i = mid_i
        else:
            hi_i = mid_i
    return [points[n] for n in sorted(points)]


def sweep_cores(
    factory: ConfigFactory,
    counts,
    platform: Platform,
    farm=None,
    strategy: str = "scan",
) -> List[DesignPoint]:
    """Evaluate core counts; see the module docstring for the strategies.

    ``farm`` (optional) memoises the builds in its result cache and stamps
    their provenance; either way evaluation runs in this process and the
    points are bit-identical.
    """
    counts = list(counts)
    if strategy == "scan":
        return _evaluate_many(factory, counts, platform, farm)
    if strategy != "bisect":
        raise ValueError(f"unknown sweep strategy {strategy!r}")
    return _bisect(factory, counts, platform, farm)


def frontier(points: Sequence[DesignPoint]) -> int:
    """Largest feasible core count among ``points`` (0 when none is)."""
    feasible = [p.n_cores for p in points if p.feasible]
    return max(feasible) if feasible else 0


def max_feasible_cores(
    factory: ConfigFactory,
    platform: Platform,
    limit: int = 64,
) -> Tuple[int, str]:
    """Largest feasible core count in ``1..limit`` and its classified limiter.

    The limiter is classified the way the paper reports it: logic pressure
    (CLB/LUT/FF) as "LUT", memory-tile pressure as "BRAM".  It is read off
    the first infeasible count, ``best + 1``, which the search has already
    evaluated unless ``best == limit``; only then is ``limit + 1`` built.
    """
    points = {
        p.n_cores: p
        for p in _bisect(factory, list(range(1, limit + 1)), platform, None)
    }
    best = frontier(list(points.values()))
    boundary = points.get(best + 1)
    if boundary is None:  # best == limit
        boundary = evaluate_point(factory, best + 1, platform)
    return best, "LUT" if boundary.limiter in ("clb", "lut", "reg") else "BRAM"


# ---------------------------------------------------------------- sweep views
def sweep_frame(points: Sequence[DesignPoint]) -> Dict[str, float]:
    """Scalar summary of a sweep: frontier, build cost, cache effectiveness.

    ``build_seconds`` on a cache-served point is the original compute time
    stored with the entry, so ``build_seconds_saved`` is real time the cache
    returned to the caller.
    """
    built = [p for p in points if not p.cache_hit]
    hits = [p for p in points if p.cache_hit]
    return {
        "points": float(len(points)),
        "built": float(len(built)),
        "cache_hits": float(len(hits)),
        "cache_hit_rate": len(hits) / len(points) if points else 0.0,
        "build_seconds_spent": sum(p.build_seconds for p in built),
        "build_seconds_saved": sum(p.build_seconds for p in hits),
        "max_feasible_cores": float(frontier(points)),
    }


def render_sweep_report(points: Sequence[DesignPoint]) -> str:
    """Human-readable sweep table with per-point provenance and a footer."""
    lines = [
        f"{'cores':>5} {'feasible':>8} {'worst util':>10} {'build s':>8} "
        f"{'source':>8} {'limited by':<30}"
    ]
    for p in sorted(points, key=lambda p: p.n_cores):
        source = "cache" if p.cache_hit else (p.worker or "local")
        reasons = "; ".join(p.reasons[:1]) if p.reasons else "-"
        lines.append(
            f"{p.n_cores:>5} {'yes' if p.feasible else 'NO':>8} "
            f"{p.worst_util:>9.1%} {p.build_seconds:>8.3f} "
            f"{source:>8} {reasons:<30}"
        )
    f = sweep_frame(points)
    lines.append(
        f"frontier: {f['max_feasible_cores']:.0f} cores | "
        f"built {f['built']:.0f}/{f['points']:.0f} points in "
        f"{f['build_seconds_spent']:.2f}s | cache served "
        f"{f['cache_hits']:.0f} ({f['cache_hit_rate']:.0%}), saving "
        f"{f['build_seconds_saved']:.2f}s"
    )
    return "\n".join(lines)
