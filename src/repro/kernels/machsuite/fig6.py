"""Figure 6 harness: MachSuite speedups over Vitis HLS.

For each Table I workload this produces the four bars of the paper's figure:

* ``spatial``             — Spatial's tuned schedule (normalised to HLS)
* ``beethoven_ideal``     — single-core throughput x feasible core count
* ``beethoven_measured``  — multi-core throughput through the simulated
  runtime server (lock + MMIO serialisation)
* the feasible core count itself, with the resource that limits it

Core counts are not copied from the paper: they are *derived* by packing
cores with the resource model until the synthesis feasibility check fails,
which reproduces the paper's claims about which resource binds (BRAM for the
stencils and NW, LUTs for GeMM and MD-KNN).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.baselines.delay_core import delay_config
from repro.core.build import BeethovenBuild, BuildMode
from repro.dse import max_feasible_cores
from repro.kernels.machsuite.workloads import (
    BEETHOVEN_CLOCK_MHZ,
    SCHEDULES,
    TABLE1,
    ToolSchedule,
    Workload,
)
from repro.platforms import AWSF1Platform
from repro.platforms.base import Platform
from repro.runtime import FpgaHandle
from repro.sim import DEFAULT_SCHEDULING


# Each factory imports its kernel when called: a row builds one kernel, and
# a farm serving cached rows builds none.
def _gemm(n_cores: int):
    from repro.kernels.machsuite.gemm import gemm_config

    return gemm_config(n_cores=n_cores, unroll_i=16, unroll_j=16)


def _nw(n_cores: int):
    from repro.kernels.machsuite.nw import nw_config

    return nw_config(n_cores=n_cores)


def _stencil2d(n_cores: int):
    from repro.kernels.machsuite.stencil import stencil2d_config

    return stencil2d_config(n_cores=n_cores)


def _stencil3d(n_cores: int):
    from repro.kernels.machsuite.stencil import stencil3d_config

    return stencil3d_config(n_cores=n_cores)


def _mdknn(n_cores: int):
    from repro.kernels.machsuite.mdknn import mdknn_config

    return mdknn_config(n_cores=n_cores, unroll=8)


#: Configuration factory per workload (full Table I parameters).
CONFIG_FACTORIES: Dict[str, Callable[[int], object]] = {
    "gemm": _gemm,
    "nw": _nw,
    "stencil2d": _stencil2d,
    "stencil3d": _stencil3d,
    "md-knn": _mdknn,
}


def config_for(bench: str, n_cores: int):
    """Importable factory entry point for farm jobs.

    ``functools.partial(config_for, bench)`` is the public equivalent of the
    factories in :data:`CONFIG_FACTORIES` whose fingerprint names the
    function and the bench, so sweeps over Table I workloads memoise
    cleanly.
    """
    return CONFIG_FACTORIES[bench](n_cores)


@dataclass
class ContentionResult:
    ops_per_second: float
    server_bound: bool


def dispatch_cost_cycles(platform: Platform) -> int:
    """Host cycles the runtime server spends per command (lock + 6 words)."""
    host = platform.host
    return host.command_lock_cycles + 6 * host.mmio_word_cycles


def analytic_measured(
    n_cores: int, kernel_cycles: int, platform: Platform
) -> ContentionResult:
    """Queueing model of the runtime server (validated against simulation).

    The server serialises one command every D cycles; each core is busy L
    cycles per command plus the command/response network latency.  With n
    cores the system is server-bound when n*D > L, else core-bound.
    """
    d = dispatch_cost_cycles(platform)
    overhead = platform.command_latency_for(0) * 2 + platform.host.response_poll_cycles
    l_eff = kernel_cycles + overhead
    per_op_server = d
    per_op_cores = l_eff / n_cores
    bottleneck = max(per_op_server, per_op_cores)
    ops = (platform.clock_mhz * 1e6) / bottleneck
    return ContentionResult(ops, server_bound=per_op_server >= per_op_cores)


def simulate_measured(
    n_cores: int,
    kernel_cycles: int,
    platform: Optional[Platform] = None,
    rounds: int = 3,
    scheduling: str = DEFAULT_SCHEDULING,
) -> ContentionResult:
    """Measure multi-core throughput through the real runtime-server model.

    ``scheduling`` overrides the kernel schedule (default: compiled); the
    result is schedule-independent — the differential harness pins that down
    on these exact configurations.
    """
    platform = platform or AWSF1Platform(clock_mhz=BEETHOVEN_CLOCK_MHZ)
    build = BeethovenBuild(
        delay_config(n_cores, kernel_cycles),
        platform,
        BuildMode.Simulation,
        scheduling=scheduling,
    )
    handle = FpgaHandle(build.design)
    futures = []
    start = handle.cycle
    for r in range(rounds):
        for core in range(n_cores):
            futures.append(handle.call("Delay", "run", core, job=r))
    for fut in futures:
        fut.get(max_cycles=50_000_000)
    elapsed = handle.cycle - start
    ops = len(futures) / (elapsed / (platform.clock_mhz * 1e6))
    d = dispatch_cost_cycles(platform)
    return ContentionResult(ops, server_bound=n_cores * d > kernel_cycles)


@dataclass
class Fig6Row:
    bench: str
    parallelism: str
    n_cores: int
    limiter: str
    hls_ops: float
    spatial_speedup: float
    beethoven_ideal_speedup: float
    beethoven_measured_speedup: float


def beethoven_kernel_cycles(bench: str) -> int:
    """Single-core, full-size kernel latency (compute + streaming) in cycles
    at the Beethoven clock, from the core's own schedule."""
    sched: ToolSchedule = SCHEDULES[bench]["beethoven"]
    workload: Workload = TABLE1[bench]
    seconds = sched.kernel_seconds(workload)
    return int(seconds * BEETHOVEN_CLOCK_MHZ * 1e6)


def fig6_row_timed(
    bench: str, platform: Optional[Platform] = None, max_cores: int = 64
) -> Tuple[Fig6Row, Dict[str, float]]:
    """One Figure 6 row plus the wall-clock seconds of its two phases.

    ``elaborate_seconds`` is the feasibility search (every build inside
    :func:`repro.dse.max_feasible_cores`), ``simulate_seconds`` the
    runtime-server measurement.  The timings travel beside the row, not on
    it, so rows stay ``==`` across serial, farm and cached executions.
    """
    platform = platform or AWSF1Platform(clock_mhz=BEETHOVEN_CLOCK_MHZ)
    workload = TABLE1[bench]
    hls = SCHEDULES[bench]["hls"]
    spatial = SCHEDULES[bench]["spatial"]
    beethoven = SCHEDULES[bench]["beethoven"]
    hls_ops = hls.ops_per_second(workload)
    t0 = time.perf_counter()
    n_cores, limiter = max_feasible_cores(CONFIG_FACTORIES[bench], platform, max_cores)
    t1 = time.perf_counter()
    single = beethoven.ops_per_second(workload)
    ideal = single * n_cores
    kernel_cycles = beethoven_kernel_cycles(bench)
    measured = simulate_measured(n_cores, kernel_cycles, platform)
    t2 = time.perf_counter()
    row = Fig6Row(
        bench=bench,
        parallelism=workload.parallelism,
        n_cores=n_cores,
        limiter=limiter,
        hls_ops=hls_ops,
        spatial_speedup=spatial.ops_per_second(workload) / hls_ops,
        beethoven_ideal_speedup=ideal / hls_ops,
        beethoven_measured_speedup=measured.ops_per_second / hls_ops,
    )
    return row, {"elaborate_seconds": t1 - t0, "simulate_seconds": t2 - t1}


def fig6_row(bench: str, platform: Optional[Platform] = None, max_cores: int = 64) -> Fig6Row:
    return fig6_row_timed(bench, platform, max_cores)[0]


def fig6_all(platform: Optional[Platform] = None, max_cores: int = 64, farm=None):
    """All Figure 6 rows; pass a :class:`repro.farm.Farm` to memoise them.

    ``fig6_row`` is a pure function of (bench, platform, max_cores), so the
    farm path is bit-identical to the direct path — repeat sweeps are
    served from the farm's result cache.
    """
    benches = list(CONFIG_FACTORIES)
    if farm is None:
        return [fig6_row(bench, platform, max_cores) for bench in benches]
    from repro.farm import Job

    jobs = [
        Job(
            "repro.kernels.machsuite.fig6:fig6_row",
            (bench, platform, max_cores),
            label=f"fig6/{bench}",
        )
        for bench in benches
    ]
    return farm.map(jobs)


def render_fig6(rows) -> str:
    lines = [
        f"{'bench':<10} {'par':<7} {'cores':>5} {'limit':>5} "
        f"{'spatial':>8} {'bthvn(ideal)':>13} {'bthvn(meas)':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r.bench:<10} {r.parallelism:<7} {r.n_cores:>5} {r.limiter:>5} "
            f"{r.spatial_speedup:>7.2f}x {r.beethoven_ideal_speedup:>12.2f}x "
            f"{r.beethoven_measured_speedup:>11.2f}x"
        )
    return "\n".join(lines)
