"""Sharded parallel simulation (``repro.dist``): the differential contract.

The headline property: partitioning a design over worker processes is an
*implementation detail* — final cycle counts, stable metrics, and fault
fingerprints are bit-identical between the serial reference engine and the
forked engine, and across worker counts.  Volatile ``dist/*`` counters
describe the harness and are exempt by design.
"""

import os
import signal
import time

import pytest

from repro.baselines.spin_core import spin_config
from repro.core.build import BeethovenBuild
from repro.dist import DistConfig, DistError, PartitionDescriptor
from repro.platforms import multi_die_platform
from repro.runtime import FpgaHandle
from repro.sim import PartitionSyncTimeout


def _build(n_workers, engine, n_cores=8, n_slrs=4):
    return BeethovenBuild(
        spin_config(n_cores, work_per_tick=4),
        multi_die_platform(n_slrs),
        distributed=DistConfig(n_workers=n_workers, engine=engine),
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
    result = (design.sim.cycle, design.metrics(stable_only=True))
    design.sim.shutdown()
    return result


# ------------------------------------------------------------- differential
def test_fork_matches_serial_and_worker_counts_match():
    """Serial == fork at each worker count; everything equal across counts."""
    reference = None
    for n_workers in (2, 3):
        serial = _run_workload(_build(n_workers, "serial"))
        fork = _run_workload(_build(n_workers, "fork"))
        assert serial == fork, f"engine mismatch at {n_workers} workers"
        if reference is None:
            reference = serial
        else:
            assert serial == reference, f"worker-count {n_workers} diverged"
    assert reference[0] > 0
    assert reference[1]  # stable metrics actually exist


def test_dist_chaos_fingerprints_identical_across_engines():
    from repro.faults.chaos import run_chaos

    for seed in (2, 3):
        a = run_chaos("memcpy", "dist:serial", seed)
        b = run_chaos("memcpy", "dist:fork", seed)
        assert (a.outcome, a.cycles, a.n_faults, a.fingerprint) == (
            b.outcome,
            b.cycles,
            b.n_faults,
            b.fingerprint,
        )
        assert not a.violates_contract


def test_dist_counters_present_and_volatile():
    build = _build(2, "serial")
    _run_workload(build)
    metrics = build.design.metrics(prefix="dist/")
    assert metrics["dist/partitions"] == 2
    assert metrics["dist/slices"] > 0
    assert metrics["dist/slice_width"] >= 1
    # Volatile: the stable dump carries no harness counters.
    stable = build.design.metrics(stable_only=True)
    assert not any(k.startswith("dist/") for k in stable)


def test_summary_mentions_sharding():
    build = _build(2, "serial")
    assert "sharded: 2 partitions" in build.summary()
    build.design.sim.shutdown()


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
        _build(5, "serial", n_slrs=4)


def test_slice_width_beyond_lookahead_rejected():
    with pytest.raises(DistError, match="slice"):
        BeethovenBuild(
            spin_config(8, work_per_tick=4),
            multi_die_platform(4, slr_crossing_latency=4),
            distributed=DistConfig(n_workers=2, slice_width=5),
        )


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
def test_non_positive_barrier_timeout_rejected(timeout):
    # A NaN deadline never expires, so a hung worker would hang the
    # supervisor; zero or less turns any slow reply into a missed barrier.
    with pytest.raises(DistError, match="barrier_timeout_s"):
        DistConfig(n_workers=2, barrier_timeout_s=timeout)


def test_bool_distributed_rejected():
    with pytest.raises(DistError, match="DistConfig or a worker count"):
        BeethovenBuild(
            spin_config(8), multi_die_platform(4), distributed=True
        )


def test_explicit_fork_engine_unavailable_is_typed():
    import repro.dist.engine as engine_mod

    original = engine_mod._fork_available
    engine_mod._fork_available = lambda: False
    try:
        with pytest.raises(DistError, match="fork"):
            _build(2, "fork")
    finally:
        engine_mod._fork_available = original


# ----------------------------------------------------------- descriptor
def test_partition_descriptor_is_deterministic_and_complete():
    b2 = _build(2, "serial")
    b2b = _build(2, "serial")
    d2, d2b = b2.design.dist_plan.descriptor(), b2b.design.dist_plan.descriptor()
    assert isinstance(d2, PartitionDescriptor)
    assert d2 == d2b
    assert d2.n_workers == 2
    assert d2.slice_width >= 1
    assert len(d2.cut_set) > 0
    # The SLR->partition map covers every die.
    assert len(d2.slr_assignment) == 4
    d3 = _build(3, "serial").design.dist_plan.descriptor()
    assert d3 != d2 and d3.n_workers == 3


def test_job_fingerprint_covers_partition_descriptor():
    from repro.farm import Job, job_fingerprint

    base = job_fingerprint("m:f", (1,), {})
    d2 = _build(2, "serial").design.dist_plan.descriptor()
    d3 = _build(3, "serial").design.dist_plan.descriptor()
    fp2 = job_fingerprint("m:f", (1,), {}, partition=d2)
    fp3 = job_fingerprint("m:f", (1,), {}, partition=d3)
    assert len({base, fp2, fp3}) == 3
    assert Job("m:f", (1,), partition=d2).fingerprint == fp2


# --------------------------------------------------- PartitionSyncTimeout
def test_killed_worker_surfaces_partition_sync_timeout():
    build = BeethovenBuild(
        spin_config(8, work_per_tick=4),
        multi_die_platform(4),
        distributed=DistConfig(n_workers=2, engine="fork", barrier_timeout_s=10.0),
    )
    handle = FpgaHandle(build.design)
    fut = handle.call("Spin", "spin", 7, rounds=4000, seed=1)
    sim = build.design.sim
    sim.run_slice(sim.slice_width * 2)  # forces the fork
    assert sim._children, "fork engine should have spawned workers"
    victim = sim._children[0]
    os.kill(victim.process.pid, signal.SIGKILL)
    victim.process.join(timeout=5.0)
    with pytest.raises(PartitionSyncTimeout) as excinfo:
        fut.get(max_cycles=200_000)
    exc = excinfo.value
    assert exc.partition == victim.pid
    assert exc.dump is not None
    assert "partitions" in exc.dump
    sim.shutdown()


def test_partition_sync_timeout_is_a_deadlock_error():
    from repro.sim import DeadlockError

    assert issubclass(PartitionSyncTimeout, DeadlockError)


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
