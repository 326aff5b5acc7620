"""``repro.farm`` — in-process build/sweep execution with a result cache.

The paper's workflow is *composition at scale*: sweep ``n_cores`` per System
until the feasibility model binds, then repeat for every platform and
ablation.  Each design point is a pure function of (configuration,
platform, build mode), so the farm treats evaluation as a list of jobs:

* :mod:`repro.farm.fingerprint` — deterministic content fingerprints for
  jobs (canonical serialisation of the payload plus a code-version salt);
* :mod:`repro.farm.cache` — an on-disk content-addressed store keyed by
  those fingerprints, whose entries are tagged JSON data;
* :mod:`repro.farm.engine` — the :class:`Farm` facade that serves hits
  from the cache, runs the misses in this process in submission order,
  and registers provenance metrics/spans with :mod:`repro.obs`.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "Farm": "repro.farm.engine",
    "FarmJobError": "repro.farm.engine",
    "Job": "repro.farm.job",
    "JobResult": "repro.farm.job",
    "ResultCache": "repro.farm.cache",
    "canonical": "repro.farm.fingerprint",
    "code_salt": "repro.farm.fingerprint",
    "job_fingerprint": "repro.farm.fingerprint",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
