"""Canonical serving scenarios shared by the bench, the CLI, chaos and tests.

The heterogeneous vehicle is two DelayCore systems with distinct kernel
classes — ``gemm`` (long latency, "Gemm" system) and ``attn`` (short
latency, "Attn" system).  DelayCores exercise the *entire* host path
(runtime-server lock, MMIO serialisation, routing, polling, watchdog)
exactly while keeping runs cheap and deterministic, which is the same
argument the Figure-6 reproduction uses; the serving layer's behaviour is a
host-path property, so this measures the real thing.

Profiles:

* ``symmetric``  — 3 identical closed-loop tenants, 50/50 kernel mix.  The
  fairness acceptance gate (Jain >= 0.9) runs on this profile.
* ``asymmetric`` — an open-loop flooder with a tight rate limit and shallow
  queue (so typed rejections actually happen), a steady closed-loop tenant,
  and a low-rate bursty tenant; shows admission control shielding the
  well-behaved tenants.
* ``smoke``      — a tiny symmetric mix for CI smoke and chaos runs.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.serve.loadgen import (
    ClosedLoop,
    LoadGenerator,
    OpenLoop,
    ServingReport,
    TenantLoad,
)
from repro.serve.service import AcceleratorService
from repro.serve.tenant import TenantConfig
from repro.sim import DEFAULT_SCHEDULING

PROFILES = ("symmetric", "asymmetric", "smoke")

#: Delay-core latencies of the two kernel classes (cycles).
GEMM_CYCLES = 1100
ATTN_CYCLES = 400


def hetero_build(
    mode: str = DEFAULT_SCHEDULING,
    faults=None,
    watchdog=None,
    observability=None,
    n_gemm: int = 2,
    n_attn: int = 2,
    distributed=None,
):
    """Two-system heterogeneous design: Gemm + Attn delay cores.

    ``distributed`` forwards a :class:`repro.dist.DistConfig`; note the
    delay cores declare no memory channels, so sharding only applies once a
    scenario swaps in compute cores with AXI endpoints (the partitioner
    needs SLR-crossing pipes to cut).
    """
    from repro.baselines.delay_core import delay_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import AWSF1Platform

    configs = [
        delay_config(n_gemm, GEMM_CYCLES, name="Gemm", io_name="gemm"),
        delay_config(n_attn, ATTN_CYCLES, name="Attn", io_name="attn"),
    ]
    return BeethovenBuild(
        configs,
        AWSF1Platform(),
        scheduling=mode,
        faults=faults,
        watchdog=watchdog,
        observability=observability,
        distributed=distributed,
    )


_BOTH = [("gemm", {"job": 1}, 1), ("attn", {"job": 2}, 1)]


def profile_loads(profile: str, n_requests: int) -> List[TenantLoad]:
    """The tenant mix of one named profile (``n_requests`` per tenant)."""
    if profile == "symmetric":
        return [
            TenantLoad(
                TenantConfig(name=f"tenant{i}", max_in_flight=2, max_queued=64),
                _BOTH,
                ClosedLoop(concurrency=2, n_requests=n_requests),
            )
            for i in range(3)
        ]
    if profile == "asymmetric":
        return [
            TenantLoad(
                TenantConfig(
                    name="flood",
                    max_in_flight=2,
                    max_queued=4,
                    cycles_per_token=900,
                    burst_tokens=4,
                ),
                [("attn", {"job": 3}, 1)],
                OpenLoop(mean_gap_cycles=150, n_requests=4 * n_requests),
            ),
            TenantLoad(
                TenantConfig(name="steady", max_in_flight=2, max_queued=64),
                _BOTH,
                ClosedLoop(concurrency=1, n_requests=n_requests),
            ),
            TenantLoad(
                TenantConfig(name="bursty", max_in_flight=2, max_queued=64),
                [("gemm", {"job": 4}, 1)],
                OpenLoop(mean_gap_cycles=4000, n_requests=n_requests),
            ),
        ]
    if profile == "smoke":
        return [
            TenantLoad(
                TenantConfig(name=f"tenant{i}", max_in_flight=2, max_queued=32),
                _BOTH,
                ClosedLoop(concurrency=1, n_requests=n_requests),
            )
            for i in range(3)
        ]
    raise ValueError(f"unknown serving profile {profile!r} (have {PROFILES})")


def run_scenario(
    profile: str,
    seed: int,
    mode: str = DEFAULT_SCHEDULING,
    n_requests: int = 8,
    faults=None,
    watchdog=None,
    observability=None,
    max_cycles: int = 2_000_000,
) -> Tuple[ServingReport, AcceleratorService, object]:
    """Build, serve and drain one profile; returns (report, service, build)."""
    build = hetero_build(
        mode=mode, faults=faults, watchdog=watchdog, observability=observability
    )
    from repro.runtime import FpgaHandle

    handle = FpgaHandle(build.design)
    loads = profile_loads(profile, n_requests)
    service = AcceleratorService(handle, [load.tenant for load in loads])
    gen = LoadGenerator(service, loads, seed=seed)
    report = gen.run(max_cycles=max_cycles)
    return report, service, build
