"""The :class:`Farm` facade: cache + in-process execution + observability.

``Farm.run(jobs)`` is the one call every sweep-shaped workflow goes
through: it fingerprints each job, serves hits from the content-addressed
cache, executes the misses in this process in submission order, stores
fresh results, and returns :class:`~repro.farm.job.JobResult` records in
submission order with their provenance (wall time, cache hit/miss).

A costed design point takes milliseconds, less than forking a worker and
shipping the job and its result over queues would, so there is no worker
pool.  A job is bounded by simulated cycles (``max_cycles``, stall budgets,
the watchdog), which are deterministic where a wall-clock kill is not.

Observability rides along on :mod:`repro.obs`: the farm keeps a
:class:`~repro.obs.registry.MetricRegistry` under the ``farm/*`` namespace
(jobs, hits/misses, per-job wall-time histogram) and a
:class:`~repro.sim.trace.Tracer` that records one span per job — track
``farm/<worker>``, one microsecond of trace time per real microsecond —
exportable with the same Chrome/Perfetto exporter builds use.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence

from repro.farm.cache import ResultCache
from repro.farm.job import Job, JobResult, resolve_fn
from repro.obs.registry import Histogram, MetricRegistry
from repro.sim.trace import Tracer

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


def default_cache_dir() -> str:
    """Cache root: ``REPRO_FARM_CACHE_DIR`` env, else ``~/.cache/repro-farm``."""
    env = os.environ.get(_CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-farm")


def _execute(job: Job) -> JobResult:
    """Run one job in this process, timing it and trapping its errors."""
    result = JobResult(job=job, worker="serial", fingerprint=job.fingerprint)
    t0 = time.perf_counter()
    try:
        result.value = resolve_fn(job.fn)(*job.args, **job.kwargs)
        result.ok = True
    except Exception as exc:  # noqa: BLE001 — job errors become data
        tb = traceback.format_exc(limit=20)
        if len(tb) > 4000:
            tb = "...\n" + tb[-4000:]
        result.error = f"{type(exc).__name__}: {exc}\n{tb.rstrip()}"
    finally:
        result.wall_seconds = time.perf_counter() - t0
    return result


class Farm:
    """In-process job execution with content-addressed memoisation.

    ``n_workers``
        Accepted only as ``1``: jobs always run in this process.  Any other
        value raises :class:`ValueError`.
    ``cache``
        ``True`` opens (creating if needed) the content-addressed cache at
        ``cache_dir`` (default ``~/.cache/repro-farm`` or the
        ``REPRO_FARM_CACHE_DIR`` env); ``False`` disables memoisation.  An
        existing :class:`ResultCache` may also be passed directly.
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache: Any = True,
        cache_dir: Optional[str] = None,
    ) -> None:
        if n_workers != 1:
            raise ValueError(f"the farm runs jobs in-process; n_workers={n_workers!r} is not 1")
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache:
            self.cache = ResultCache(cache_dir or default_cache_dir())
        else:
            self.cache = None
        self.registry = MetricRegistry()
        self.tracer = Tracer()
        self.jobs_submitted = self.jobs_completed = self.jobs_failed = 0
        self.cache_hits = self.cache_misses = 0
        self.job_wall_seconds = Histogram(_WALL_BUCKETS)
        self.cache_seconds_saved = 0
        scope = self.registry.scope("farm")
        scope.bind("jobs_submitted", lambda: self.jobs_submitted)
        scope.bind("jobs_completed", lambda: self.jobs_completed)
        scope.bind("jobs_failed", lambda: self.jobs_failed)
        scope.bind("cache/hits", lambda: self.cache_hits)
        scope.bind("cache/misses", lambda: self.cache_misses)
        scope.bind("job_wall_seconds", lambda: self.job_wall_seconds.dump_value())
        scope.bind("cache/seconds_saved", lambda: self.cache_seconds_saved)
        self._epoch = time.perf_counter()

    # ----------------------------------------------------------- execution
    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute ``jobs`` (cache first, then in-process); provenance included.

        Results come back in submission order.  Failures are *data* here —
        ``ok=False`` with the error string — so one bad point never aborts a
        sweep; use :meth:`map` for raise-on-failure semantics.
        """
        jobs = list(jobs)
        self.jobs_submitted += len(jobs)
        # Serve whatever the cache already knows, then compute the misses.
        results = [self._lookup(job) for job in jobs]
        for i, job in enumerate(jobs):
            if results[i] is None:
                results[i] = self._compute(job)
        self._account(results)
        return results

    def _lookup(self, job: Job) -> Optional[JobResult]:
        if self.cache is None or not job.cache:
            return None
        hit, value, meta = self.cache.get(job.fingerprint)
        if not hit:
            return None
        return JobResult(
            job=job,
            value=value,
            ok=True,
            worker="cache",
            wall_seconds=float(meta.get("wall_seconds", 0.0)),
            cache_hit=True,
            fingerprint=job.fingerprint,
        )

    def _compute(self, job: Job) -> JobResult:
        res = _execute(job)
        if res.ok and self.cache is not None and job.cache:
            self.cache.put(
                job.fingerprint,
                res.value,
                meta={"label": job.label, "wall_seconds": res.wall_seconds},
            )
        return res

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
                self.jobs_completed += 1
            else:
                self.jobs_failed += 1
            if res.cache_hit:
                self.cache_hits += 1
                self.cache_seconds_saved += res.wall_seconds
            else:
                self.cache_misses += 1
                self.job_wall_seconds.observe(res.wall_seconds)
            # One span per job on the worker's track.  Cache hits render as
            # zero-length markers at the lookup instant.
            dur_us = 0 if res.cache_hit else int(res.wall_seconds * 1e6)
            sid = self.tracer.begin_span(
                max(now_us - dur_us, 0),
                f"farm/{res.worker}",
                f"job:{res.label}",
                fingerprint=res.fingerprint[:12],
                cache_hit=res.cache_hit,
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
        """One JSON-able snapshot: job counters and cache state."""
        out: Dict[str, Any] = {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }
        served = self.cache_hits + self.cache_misses
        out["cache_hit_rate"] = self.cache_hits / served if served else 0.0
        out["cache"] = self.cache.stats() if self.cache is not None else None
        return out
