"""Sharded simulation (``repro.dist``): the differential contract.

The headline property: how many partitions a design is cut into is an
*implementation detail* — final cycle counts and stable metrics are
bit-identical across worker counts.  Volatile ``dist/*`` counters describe
the harness and are exempt by design.
"""

import pytest

from repro.baselines.spin_core import spin_config
from repro.core.build import BeethovenBuild
from repro.dist import DistConfig, DistError, PartitionDescriptor
from repro.platforms import multi_die_platform
from repro.runtime import FpgaHandle


def _build(n_workers, n_cores=8, n_slrs=4):
    return BeethovenBuild(
        spin_config(n_cores, work_per_tick=4),
        multi_die_platform(n_slrs),
        distributed=DistConfig(n_workers=n_workers),
    )


def _run_workload(build, n_cores=8):
    """Heterogeneous per-core load: every core gets different work."""
    handle = FpgaHandle(build.design)
    futs = [
        handle.call("Spin", "spin", c, rounds=40 + 9 * c, seed=c + 1)
        for c in range(n_cores)
    ]
    for fut in futs:
        fut.get()
    design = build.design
    return design.sim.cycle, design.metrics(stable_only=True)


# ------------------------------------------------------------- differential
def test_worker_counts_match():
    """Two and three partitions give equal cycles and stable dumps."""
    two = _run_workload(_build(2))
    three = _run_workload(_build(3))
    assert two == three, "worker-count 3 diverged from 2"
    assert two[0] > 0
    assert two[1]  # stable metrics actually exist


def test_dist_counters_present_and_volatile():
    build = _build(2)
    _run_workload(build)
    metrics = build.design.metrics(prefix="dist/")
    assert metrics["dist/partitions"] == 2
    assert metrics["dist/slices"] > 0
    assert metrics["dist/slice_width"] >= 1
    # Volatile: the stable dump carries no harness counters.
    stable = build.design.metrics(stable_only=True)
    assert not any(k.startswith("dist/") for k in stable)


def test_summary_mentions_sharding():
    build = _build(2)
    assert "sharded: 2 partitions" in build.summary()


# --------------------------------------------------------------- validation
def test_single_die_design_rejected():
    from repro.platforms import KriaPlatform

    with pytest.raises(DistError):
        BeethovenBuild(
            spin_config(2),
            KriaPlatform(),
            distributed=DistConfig(n_workers=2),
        )


def test_more_workers_than_slr_groups_rejected():
    with pytest.raises(DistError, match="workers"):
        _build(5, n_slrs=4)


def test_slice_width_beyond_lookahead_rejected():
    with pytest.raises(DistError, match="slice"):
        BeethovenBuild(
            spin_config(8, work_per_tick=4),
            multi_die_platform(4, slr_crossing_latency=4),
            distributed=DistConfig(n_workers=2, slice_width=5),
        )


def test_bool_distributed_rejected():
    with pytest.raises(DistError, match="DistConfig or a worker count"):
        BeethovenBuild(
            spin_config(8), multi_die_platform(4), distributed=True
        )


# ----------------------------------------------------------- descriptor
def test_partition_descriptor_is_deterministic_and_complete():
    b2 = _build(2)
    b2b = _build(2)
    d2, d2b = b2.design.dist_plan.descriptor(), b2b.design.dist_plan.descriptor()
    assert isinstance(d2, PartitionDescriptor)
    assert d2 == d2b
    assert d2.n_workers == 2
    assert d2.slice_width >= 1
    assert len(d2.cut_set) > 0
    # The SLR->partition map covers every die.
    assert len(d2.slr_assignment) == 4
    d3 = _build(3).design.dist_plan.descriptor()
    assert d3 != d2 and d3.n_workers == 3


def test_job_fingerprint_covers_partition_descriptor():
    from repro.farm import Job, job_fingerprint

    base = job_fingerprint("m:f", (1,), {})
    d2 = _build(2).design.dist_plan.descriptor()
    d3 = _build(3).design.dist_plan.descriptor()
    fp2 = job_fingerprint("m:f", (1,), {}, partition=d2)
    fp3 = job_fingerprint("m:f", (1,), {}, partition=d3)
    assert len({base, fp2, fp3}) == 3
    assert Job("m:f", (1,), partition=d2).fingerprint == fp2


# ------------------------------------------------------------- pool stats
def test_serial_pool_collects_stats():
    from repro.farm import Job, SerialPool

    pool = SerialPool()
    outs = pool.run([Job("math:hypot", (3, 4)), Job("math:hypot", (6, 8))])
    assert [o.value for o in outs] == [5.0, 10.0]
    stats = pool.last_stats
    assert stats.jobs == 2
    assert stats.dispatched["serial"] == 2
    assert stats.elapsed_seconds >= 0.0
    assert set(stats.utilization) == {"serial"}


def test_worker_pool_collects_utilization_and_queue_depth():
    from repro.farm import Job, WorkerPool
    from repro.farm.pool import multiprocessing_available

    if not multiprocessing_available():
        pytest.skip("multiprocessing unavailable in this sandbox")
    pool = WorkerPool(2, default_timeout_s=60.0)
    jobs = [Job("math:hypot", (i, i + 1)) for i in range(6)]
    outs = pool.run(jobs)
    assert all(o.ok for o in outs)
    stats = pool.last_stats
    assert stats.jobs == 6
    assert stats.queue_high_water >= 1
    assert sum(stats.dispatched.values()) == 6
    assert 0.0 <= stats.mean_utilization <= 1.0


def test_bind_pool_metrics_publishes_gauges():
    from repro.farm import Job, SerialPool, bind_pool_metrics
    from repro.obs.registry import MetricRegistry

    registry = MetricRegistry()
    pool = SerialPool()
    bind_pool_metrics(pool, registry)
    pool.run([Job("math:hypot", (3, 4))])
    dump = registry.dump()
    assert dump["farm/pool/jobs"] == 1
    assert dump["farm/pool/workers"] == 1
    # Harness-side gauges must stay out of stable comparisons.
    assert "farm/pool/jobs" not in registry.dump(stable_only=True)
