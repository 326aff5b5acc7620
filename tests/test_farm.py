"""Farm failure modes, cache behaviour, and observability.

Covers the ISSUE 3 satellite checklist: a worker crash mid-job recovers via
retry, a hung job hits its timeout and is marked failed without stalling
siblings, and a fingerprint change invalidates only the affected cache
entries.
"""

import os
import time

import pytest

from repro.farm import (
    Farm,
    FarmJobError,
    Job,
    ResultCache,
    canonical,
    current_attempt,
    job_fingerprint,
)
from repro.farm.pool import SerialPool, WorkerPool, multiprocessing_available
from repro.obs.export import validate_chrome_trace

needs_mp = pytest.mark.skipif(
    not multiprocessing_available(), reason="multiprocessing unavailable"
)


# --------------------------------------------------------------- job bodies
# Module-level so worker processes can resolve them by reference.
def _square(x):
    return x * x


def _crash_first_attempt(x):
    if current_attempt() == 1:
        os._exit(13)  # simulated worker death (OOM-kill / segfault stand-in)
    return x + 100


def _always_crash():
    os._exit(13)


def _hang(seconds):
    time.sleep(seconds)
    return "done"


def _raise(msg):
    raise ValueError(msg)


def _call(f):
    return f()


# ----------------------------------------------------------- fingerprinting
def test_fingerprint_is_deterministic_and_content_sensitive():
    fp1 = job_fingerprint(_square, (3,), {})
    assert fp1 == job_fingerprint(_square, (3,), {})
    assert fp1 != job_fingerprint(_square, (4,), {})
    assert fp1 != job_fingerprint(_hang, (3,), {})
    # kwargs order must not matter.
    a = job_fingerprint(_square, (), {"a": 1, "b": 2})
    b = job_fingerprint(_square, (), {"b": 2, "a": 1})
    assert a == b


def test_fingerprint_sees_lambda_bodies():
    fp_double = job_fingerprint(_square, (lambda n: 2 * n,), {})
    fp_triple = job_fingerprint(_square, (lambda n: 3 * n,), {})
    assert fp_double != fp_triple


def test_fingerprint_salt_env_changes_keys(monkeypatch):
    before = job_fingerprint(_square, (3,), {})
    monkeypatch.setenv("REPRO_FARM_SALT", "release-2")
    after = job_fingerprint(_square, (3,), {})
    assert before != after


def test_canonical_handles_dataclasses_and_containers():
    from repro.platforms import AWSF1Platform

    p1 = canonical(AWSF1Platform())
    p2 = canonical(AWSF1Platform())
    assert p1 == p2
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})


# ------------------------------------------------------------------- cache
def test_cache_roundtrip_and_corruption(tmp_path):
    cache = ResultCache(str(tmp_path))
    fp = "ab" + "0" * 62
    assert cache.get(fp) == (False, None, {})
    cache.put(fp, {"x": 1}, meta={"wall_seconds": 2.5})
    hit, value, meta = cache.get(fp)
    assert hit and value == {"x": 1} and meta["wall_seconds"] == 2.5
    assert list(cache.entries()) == [fp]
    # Corrupt the entry on disk: next lookup is a miss and the file is gone.
    with open(cache.path_for(fp), "wb") as f:
        f.write(b"not a pickle")
    assert cache.get(fp)[0] is False
    assert fp not in cache


def test_fingerprint_change_invalidates_only_affected_entries(tmp_path):
    farm = Farm(n_workers=1, cache_dir=str(tmp_path))
    job_a, job_b = Job(_square, (2,)), Job(_square, (3,))
    farm.run([job_a, job_b])
    assert len(farm.cache) == 2

    # Change one job's parameters: only that entry misses; the sibling's
    # entry is untouched and still serves.
    farm2 = Farm(n_workers=1, cache_dir=str(tmp_path))
    changed = Job(_square, (4,))
    res = farm2.run([changed, Job(_square, (3,))])
    assert [r.cache_hit for r in res] == [False, True]
    assert len(farm2.cache) == 3  # old entry for (2,) still present
    assert changed.fingerprint != job_a.fingerprint


def test_second_run_served_from_cache(tmp_path):
    jobs = lambda: [Job(_square, (i,)) for i in range(8)]  # noqa: E731
    first = Farm(n_workers=1, cache_dir=str(tmp_path)).run(jobs())
    assert all(not r.cache_hit for r in first)
    again = Farm(n_workers=1, cache_dir=str(tmp_path))
    second = again.run(jobs())
    assert all(r.cache_hit and r.worker == "cache" for r in second)
    assert [r.value for r in second] == [r.value for r in first]
    assert again.stats()["cache_hit_rate"] == 1.0


def test_cache_opt_out_per_job(tmp_path):
    farm = Farm(n_workers=1, cache_dir=str(tmp_path))
    farm.run([Job(_square, (5,), cache=False)])
    assert len(farm.cache) == 0


# ------------------------------------------------------------ failure modes
@needs_mp
def test_worker_crash_recovers_via_retry():
    farm = Farm(n_workers=2, cache=False, backoff_base_s=0.01)
    res = farm.run(
        [Job(_crash_first_attempt, (7,)), Job(_square, (2,)), Job(_square, (3,))]
    )
    crashed = res[0]
    assert crashed.ok and crashed.value == 107
    assert crashed.attempts == 2 and crashed.crashes == 1
    assert [r.value for r in res[1:]] == [4, 9]
    stats = farm.stats()
    assert stats["crashes"] >= 1 and stats["retries"] >= 1


@needs_mp
def test_persistent_crash_fails_after_bounded_attempts():
    farm = Farm(n_workers=2, cache=False, max_attempts=2, backoff_base_s=0.01)
    res = farm.run([Job(_always_crash), Job(_square, (4,))])
    assert not res[0].ok and "crashed" in res[0].error
    assert res[0].attempts == 2
    assert res[1].ok and res[1].value == 16
    with pytest.raises(FarmJobError):
        farm.map([Job(_always_crash)])


@needs_mp
def test_timeout_marks_failed_without_stalling_siblings():
    farm = Farm(n_workers=2, cache=False)
    t0 = time.perf_counter()
    res = farm.run(
        [Job(_hang, (60,), timeout_s=0.5)] + [Job(_square, (i,)) for i in range(4)]
    )
    elapsed = time.perf_counter() - t0
    hung, siblings = res[0], res[1:]
    assert not hung.ok and hung.timed_out and "timed out" in hung.error
    assert [r.value for r in siblings] == [0, 1, 4, 9]
    assert elapsed < 30.0  # nowhere near the 60s hang
    assert farm.stats()["timeouts"] == 1


def test_exceptions_fail_fast_and_propagate_via_map():
    farm = Farm(n_workers=1, cache=False)
    res = farm.run([Job(_raise, ("bad point",)), Job(_square, (6,))])
    assert not res[0].ok and "ValueError: bad point" in res[0].error
    assert res[0].attempts == 1  # deterministic errors are not retried
    assert res[1].ok
    with pytest.raises(FarmJobError) as err:
        farm.map([Job(_raise, ("bad point",))])
    assert "bad point" in str(err.value)


def test_unpicklable_payload_degrades_to_inline():
    farm = Farm(n_workers=4, cache=False)
    res = farm.run([Job(_call, (lambda: 3,), label="closure")])
    # A closure cannot cross a process boundary: the job must still run.
    assert res[0].ok and res[0].value == 3
    assert res[0].worker == "inline"
    assert farm.stats()["inline_fallbacks"] == 1


def test_serial_pool_is_bit_identical_to_workers(tmp_path):
    jobs = lambda: [Job(_square, (i,)) for i in range(6)]  # noqa: E731
    serial = Farm.serial().run(jobs())
    pooled = Farm(n_workers=2, cache=False).run(jobs())
    assert [r.value for r in serial] == [r.value for r in pooled]


def test_pool_selection_falls_back_serially():
    assert isinstance(Farm(n_workers=1, cache=False).pool, SerialPool)
    if multiprocessing_available():
        assert isinstance(Farm(n_workers=2, cache=False).pool, WorkerPool)


# ----------------------------------------------------------- observability
def test_metrics_and_spans_registered_under_farm_namespace(tmp_path):
    farm = Farm(n_workers=1, cache_dir=str(tmp_path))
    farm.run([Job(_square, (i,)) for i in range(3)])
    dump = farm.metrics()
    assert dump["farm/jobs_submitted"] == 3
    assert dump["farm/cache/misses"] == 3
    assert dump["farm/job_wall_seconds"]["count"] == 3
    # One span per job, exportable through the shared Perfetto exporter.
    spans = farm.tracer.closed_spans()
    assert len(spans) == 3
    assert all(s.track.startswith("farm/") for s in spans)
    assert validate_chrome_trace(farm.chrome_trace()) == []
    # Cache-served reruns appear as hit-marked spans.
    farm.run([Job(_square, (0,))])
    hit_spans = [s for s in farm.tracer.closed_spans() if s.args.get("cache_hit")]
    assert len(hit_spans) == 1


def test_artifact_exports(tmp_path):
    farm = Farm(n_workers=1, cache_dir=str(tmp_path / "cache"))
    farm.run([Job(_square, (1,))])
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    farm.export_metrics(str(metrics_path))
    farm.export_chrome_trace(str(trace_path))
    assert metrics_path.exists() and trace_path.exists()
    stats = farm.stats()
    assert stats["cache"]["entries"] == 1
    assert stats["jobs_completed"] == 1


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
