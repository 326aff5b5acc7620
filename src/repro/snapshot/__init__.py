"""Deterministic checkpoint/restore for Beethoven simulations.

``capture(handle)`` freezes the complete state of a single-process run —
cycle counter, every channel's contents and lag-credit bookkeeping,
per-component model state, scheduler wake heap, metric registry, span
tracker, fault RNG positions and host-side command registry — into a
versioned :class:`Snapshot`; after rebuilding the same design and
replaying the host-side setup, ``restore(handle, snap); run(N)`` is
bit-identical to the uninterrupted run under all four scheduling backends.

Distributed runs checkpoint at slice barriers via
``DistConfig(checkpoint_every_slices=...)``, which also arms fork-engine
worker failover: a killed worker is respawned and restored from the last
barrier checkpoint instead of raising terminal ``PartitionSyncTimeout``.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "SNAPSHOT_VERSION": "repro.snapshot.engine",
    "Freezer": "repro.snapshot.engine",
    "Snapshot": "repro.snapshot.engine",
    "SnapshotError": "repro.snapshot.engine",
    "SnapshotVersionError": "repro.snapshot.engine",
    "StageLog": "repro.snapshot.store",
    "Thawer": "repro.snapshot.engine",
    "capture": "repro.snapshot.engine",
    "capture_partition_state": "repro.snapshot.engine",
    "consume_resumed_flag": "repro.snapshot.store",
    "job_checkpoint": "repro.snapshot.store",
    "job_checkpoint_path": "repro.snapshot.store",
    "load": "repro.snapshot.store",
    "note_job_resumed": "repro.snapshot.store",
    "restore": "repro.snapshot.engine",
    "restore_partition_state": "repro.snapshot.engine",
    "save": "repro.snapshot.store",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
