"""``repro.farm`` — sharded build/sweep execution with a result cache.

The paper's workflow is *composition at scale*: sweep ``n_cores`` per System
until the feasibility model binds, then repeat for every platform and
ablation.  Each design point is a pure function of (configuration,
platform, build mode), so the farm treats evaluation as a job graph:

* :mod:`repro.farm.fingerprint` — deterministic content fingerprints for
  jobs (canonical serialisation of the payload plus a code-version salt);
* :mod:`repro.farm.cache` — an on-disk content-addressed store keyed by
  those fingerprints;
* :mod:`repro.farm.pool` — a multiprocess worker pool with per-job
  timeouts, bounded retry-with-backoff on worker crash, and graceful
  degradation to in-process serial execution;
* :mod:`repro.farm.engine` — the :class:`Farm` facade that glues cache and
  pool together and registers provenance metrics/spans with
  :mod:`repro.obs`.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "Farm": "repro.farm.engine",
    "FarmJobError": "repro.farm.engine",
    "Job": "repro.farm.job",
    "JobResult": "repro.farm.job",
    "PoolStats": "repro.farm.pool",
    "ResultCache": "repro.farm.cache",
    "SerialPool": "repro.farm.pool",
    "WorkerPool": "repro.farm.pool",
    "bind_pool_metrics": "repro.farm.pool",
    "canonical": "repro.farm.fingerprint",
    "code_salt": "repro.farm.fingerprint",
    "current_attempt": "repro.farm.pool",
    "job_fingerprint": "repro.farm.fingerprint",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
