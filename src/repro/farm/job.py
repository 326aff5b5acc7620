"""Job and result records for the farm.

A :class:`Job` names a callable (either directly, or as an importable
``"module:attr"`` string, whose fingerprint does not depend on how the
callable was compiled) plus its payload.  A :class:`JobResult` carries the
value back together with its provenance: how long it took, whether the
cache served it, and whether it resumed from a checkpoint.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.farm.fingerprint import job_fingerprint

FnRef = Union[str, Callable[..., Any]]


def resolve_fn(ref: FnRef) -> Callable[..., Any]:
    """Resolve a job's callable: ``"pkg.mod:attr"`` strings import lazily."""
    if callable(ref):
        return ref
    module_name, _, attr_path = ref.partition(":")
    if not attr_path:
        raise ValueError(f"bad function reference {ref!r}: want 'module:attr'")
    obj: Any = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        obj = getattr(obj, attr)
    if not callable(obj):
        raise TypeError(f"{ref!r} resolved to non-callable {obj!r}")
    return obj


@dataclass
class Job:
    """One unit of farm work: a callable reference plus its payload.

    ``fn`` may be a callable or an importable ``"module:attr"`` string; the
    string form is preferred for jobs defined in library code.
    ``cache=False`` opts a job out of the result cache (e.g. wall-clock
    measurements, or a value the cache cannot encode).

    ``checkpoint_every`` declares the job *resumable*: job code that honours
    :func:`repro.snapshot.store.job_checkpoint` checkpoints its state every
    N units to a content-addressed file the farm assigns (next to the result
    cache), and a re-run after the host process died resumes from the last
    checkpoint instead of restarting.  ``checkpoint_path`` is normally assigned
    by the farm from the job fingerprint; set it explicitly only to pin a
    location.  Neither field enters the cache fingerprint (they change how a
    result is computed, never its value).
    """

    fn: FnRef
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    cache: bool = True
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        self.args = tuple(self.args)
        if not self.label:
            name = self.fn if isinstance(self.fn, str) else getattr(
                self.fn, "__qualname__", repr(self.fn)
            )
            self.label = str(name).rpartition(":")[2]
        self._fingerprint: Optional[str] = None

    @classmethod
    def call(cls, fn: FnRef, *args: Any, **kwargs: Any) -> "Job":
        """Shorthand constructor: ``Job.call("mod:fn", a, b, k=1)``."""
        return cls(fn, args, kwargs)

    @property
    def fingerprint(self) -> str:
        """Content fingerprint (cache key); computed once per job."""
        if self._fingerprint is None:
            self._fingerprint = job_fingerprint(self.fn, self.args, self.kwargs)
        return self._fingerprint

    def resolve(self) -> Callable[..., Any]:
        return resolve_fn(self.fn)


@dataclass
class JobResult:
    """Outcome and provenance of one job."""

    job: Job
    value: Any = None
    ok: bool = False
    error: Optional[str] = None
    worker: str = ""  # "serial" (computed in-process) or "cache"
    wall_seconds: float = 0.0  # execution time (original compute time on hits)
    cache_hit: bool = False
    fingerprint: str = ""
    #: True when the run restored state from a checkpoint file written by
    #: an earlier run that died.
    resumed_from_checkpoint: bool = False

    @property
    def label(self) -> str:
        return self.job.label
