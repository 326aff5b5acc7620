"""The :class:`Farm` facade: cache + pool + observability.

``Farm.run(jobs)`` is the one call every sweep-shaped workflow goes
through: it fingerprints each job, serves hits from the content-addressed
cache, shards the misses across the worker pool, stores fresh results, and
returns :class:`~repro.farm.job.JobResult` records in submission order with
full provenance (worker id, wall time, cache hit/miss, attempt count).

Observability rides along on :mod:`repro.obs`: the farm keeps a
:class:`~repro.obs.registry.MetricRegistry` under the ``farm/*`` namespace
(jobs, hits/misses, retries, timeouts, crashes, per-job wall-time
histogram) and a :class:`~repro.sim.trace.Tracer` that records one span per
job — track ``farm/<worker>``, one microsecond of trace time per real
microsecond — exportable with the same Chrome/Perfetto exporter builds use.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.farm.cache import ResultCache
from repro.farm.job import Job, JobResult
from repro.obs.registry import MetricRegistry
from repro.sim.trace import Tracer

_WORKERS_ENV = "REPRO_FARM_WORKERS"
_CACHE_DIR_ENV = "REPRO_FARM_CACHE_DIR"

#: Wall-time histogram buckets: 1ms .. ~1hr in powers of four (seconds).
_WALL_BUCKETS = tuple(0.001 * 4**i for i in range(11))


class FarmJobError(RuntimeError):
    """Raised by :meth:`Farm.map` when any job fails."""

    def __init__(self, failures: Sequence[JobResult]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} farm job(s) failed:"]
        for res in self.failures:
            lines.append(f"  {res.label}: {res.error}")
        super().__init__("\n".join(lines))


def default_workers() -> int:
    """Worker count: ``REPRO_FARM_WORKERS`` env, else min(4, cpu_count)."""
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


def default_cache_dir() -> str:
    """Cache root: ``REPRO_FARM_CACHE_DIR`` env, else ``~/.cache/repro-farm``."""
    env = os.environ.get(_CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-farm")


class Farm:
    """Sharded job execution with content-addressed memoisation.

    ``n_workers``
        Pool width; ``None`` reads ``REPRO_FARM_WORKERS`` (default
        ``min(4, cpu_count)``).  ``1`` — or an interpreter where
        multiprocessing is unusable — selects the in-process serial pool.
    ``cache``
        ``True`` opens (creating if needed) the content-addressed cache at
        ``cache_dir`` (default ``~/.cache/repro-farm`` or the
        ``REPRO_FARM_CACHE_DIR`` env); ``False`` disables memoisation.  An
        existing :class:`ResultCache` may also be passed directly.
    ``registry`` / ``tracer``
        Adopt an existing obs registry/tracer (e.g. a build's) instead of
        farm-private ones; metrics land under ``farm/*`` either way.
    ``checkpoint_dir``
        Where resumable jobs (``Job(checkpoint_every=...)``) keep their
        checkpoint files; defaults to ``<cache root>/checkpoints``.  Paths
        are content-addressed by job fingerprint *and* snapshot format
        version, so a host crash mid-sweep resumes from the right file on
        the next run and a format bump never feeds stale snapshots.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        cache: Any = True,
        cache_dir: Optional[str] = None,
        default_timeout_s: Optional[float] = 600.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        from repro.farm.pool import SerialPool, WorkerPool, multiprocessing_available

        self.n_workers = default_workers() if n_workers is None else max(int(n_workers), 1)
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache:
            self.cache = ResultCache(cache_dir or default_cache_dir())
        else:
            self.cache = None
        self.checkpoint_dir = checkpoint_dir or os.path.join(
            cache_dir or default_cache_dir(), "checkpoints"
        )
        if self.n_workers > 1 and multiprocessing_available():
            self.pool: Any = WorkerPool(
                self.n_workers, default_timeout_s, max_attempts, backoff_base_s
            )
        else:
            self.pool = SerialPool(default_timeout_s, max_attempts, backoff_base_s)

        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        scope = self.registry.scope("farm")
        self._m_submitted = scope.counter("jobs_submitted")
        self._m_completed = scope.counter("jobs_completed")
        self._m_failed = scope.counter("jobs_failed")
        self._m_hits = scope.counter("cache/hits")
        self._m_misses = scope.counter("cache/misses")
        self._m_retries = scope.counter("retries")
        self._m_timeouts = scope.counter("timeouts")
        self._m_crashes = scope.counter("crashes")
        self._m_inline = scope.counter("inline_fallbacks")
        self._m_resumes = scope.counter("checkpoint_resumes")
        self._m_workers = scope.gauge("workers")
        self._m_workers.set(self.pool.n_workers)
        self._m_wall = scope.histogram("job_wall_seconds", buckets=_WALL_BUCKETS)
        self._m_saved = scope.gauge("cache/seconds_saved")
        self._epoch = time.perf_counter()

    # ----------------------------------------------------------- execution
    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute ``jobs`` (cache first, then the pool); provenance included.

        Results come back in submission order.  Failures are *data* here —
        ``ok=False`` with the error string — so one bad point never aborts a
        sweep; use :meth:`map` for raise-on-failure semantics.
        """
        jobs = list(jobs)
        self._m_submitted.inc(len(jobs))
        results: Dict[int, JobResult] = {}

        # 1. Serve whatever the cache already knows.
        misses: List[int] = []
        for i, job in enumerate(jobs):
            fp = job.fingerprint
            if self.cache is not None and job.cache:
                hit, value, meta = self.cache.get(fp)
                if hit:
                    results[i] = JobResult(
                        job=job,
                        value=value,
                        ok=True,
                        worker="cache",
                        wall_seconds=float(meta.get("wall_seconds", 0.0)),
                        attempts=0,
                        cache_hit=True,
                        fingerprint=fp,
                    )
                    continue
            misses.append(i)

        # 2. Shard the misses across the pool.  Resumable jobs get their
        #    content-addressed checkpoint path assigned here so a retry —
        #    or a whole re-run after a host crash — finds the same file.
        if misses:
            from repro.snapshot.store import job_checkpoint_path

            for i in misses:
                job = jobs[i]
                if job.checkpoint_every and not job.checkpoint_path:
                    job.checkpoint_path = job_checkpoint_path(
                        self.checkpoint_dir, job.fingerprint
                    )
            outcomes = self.pool.run([jobs[i] for i in misses])
            for i, outcome in zip(misses, outcomes):
                job = jobs[i]
                results[i] = JobResult(
                    job=job,
                    value=outcome.value,
                    ok=outcome.ok,
                    error=outcome.error,
                    worker=outcome.worker,
                    wall_seconds=outcome.wall_seconds,
                    attempts=outcome.attempts,
                    cache_hit=False,
                    timed_out=outcome.timed_out,
                    crashes=outcome.crashes,
                    fingerprint=job.fingerprint,
                    resumed_from_checkpoint=outcome.resumed_from_checkpoint,
                )
                if outcome.ok and self.cache is not None and job.cache:
                    self.cache.put(
                        job.fingerprint,
                        outcome.value,
                        meta={
                            "label": job.label,
                            "worker": outcome.worker,
                            "wall_seconds": outcome.wall_seconds,
                            "attempts": outcome.attempts,
                        },
                    )

        ordered = [results[i] for i in range(len(jobs))]
        self._account(ordered)
        return ordered

    def map(self, jobs: Sequence[Job]) -> List[Any]:
        """Like :meth:`run` but returns plain values, raising on any failure."""
        results = self.run(jobs)
        failures = [r for r in results if not r.ok]
        if failures:
            raise FarmJobError(failures)
        return [r.value for r in results]

    # -------------------------------------------------------- observability
    def _account(self, results: Sequence[JobResult]) -> None:
        now_us = int((time.perf_counter() - self._epoch) * 1e6)
        for res in results:
            if res.ok:
                self._m_completed.inc()
            else:
                self._m_failed.inc()
            if res.cache_hit:
                self._m_hits.inc()
                self._m_saved.add(res.wall_seconds)
            else:
                self._m_misses.inc()
                self._m_wall.observe(res.wall_seconds)
            if res.attempts > 1:
                self._m_retries.inc(res.attempts - 1)
            if res.timed_out:
                self._m_timeouts.inc()
            if res.crashes:
                self._m_crashes.inc(res.crashes)
            if res.worker == "inline":
                self._m_inline.inc()
            if res.resumed_from_checkpoint:
                self._m_resumes.inc()
            # One span per job on the worker's track.  Cache hits render as
            # zero-length markers at the lookup instant.
            dur_us = 0 if res.cache_hit else int(res.wall_seconds * 1e6)
            sid = self.tracer.begin_span(
                max(now_us - dur_us, 0),
                f"farm/{res.worker}",
                f"job:{res.label}",
                fingerprint=res.fingerprint[:12],
                cache_hit=res.cache_hit,
                attempts=res.attempts,
                ok=res.ok,
            )
            self.tracer.end_span(sid, now_us)

    def metrics(self, prefix: Optional[str] = "farm") -> Dict[str, Any]:
        return self.registry.dump(prefix)

    def metrics_report(self, prefix: Optional[str] = "farm") -> str:
        return self.registry.render_report(prefix)

    def export_metrics(self, path: str, prefix: Optional[str] = "farm"):
        from repro.obs.export import export_metrics

        return export_metrics(path, self.registry, prefix)

    def chrome_trace(self) -> Dict[str, Any]:
        from repro.obs.export import chrome_trace

        return chrome_trace(self.tracer)

    def export_chrome_trace(self, path: str) -> Dict[str, Any]:
        from repro.obs.export import export_chrome_trace

        return export_chrome_trace(path, self.tracer)

    def stats(self) -> Dict[str, Any]:
        """One JSON-able snapshot: pool shape, counters, cache state."""
        out: Dict[str, Any] = {
            "workers": self.pool.n_workers,
            "pool": type(self.pool).__name__,
            "jobs_submitted": int(self._m_submitted),
            "jobs_completed": int(self._m_completed),
            "jobs_failed": int(self._m_failed),
            "cache_hits": int(self._m_hits),
            "cache_misses": int(self._m_misses),
            "retries": int(self._m_retries),
            "timeouts": int(self._m_timeouts),
            "crashes": int(self._m_crashes),
            "inline_fallbacks": int(self._m_inline),
        }
        served = int(self._m_hits) + int(self._m_misses)
        out["cache_hit_rate"] = int(self._m_hits) / served if served else 0.0
        out["cache"] = self.cache.stats() if self.cache is not None else None
        return out

    # --------------------------------------------------------- constructors
    @classmethod
    def serial(cls, cache: Any = False, **kwargs: Any) -> "Farm":
        """An in-process farm (no worker processes, cache off by default).

        This is the reference executor: sweeps routed through it are
        bit-identical to calling the underlying functions directly.
        """
        return cls(n_workers=1, cache=cache, **kwargs)
