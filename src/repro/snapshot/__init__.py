"""Deterministic checkpoint/restore for Beethoven simulations.

``capture(handle)`` freezes the complete state of a run —
cycle counter, every channel's contents and lag-credit bookkeeping,
per-component model state, the dirty-channel list, every owned metric
(with the object that holds it), span tracker, fault RNG positions and
host-side command registry — into a versioned :class:`Snapshot`; after rebuilding the same design and
replaying the host-side setup, ``restore(handle, snap); run(N)`` is
bit-identical to the uninterrupted run under both scheduling backends.
``capture_sim_state``/``restore_sim_state`` do the same for a bare
simulator with no host interface.
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
    "capture_sim_state": "repro.snapshot.engine",
    "load": "repro.snapshot.store",
    "restore": "repro.snapshot.engine",
    "restore_sim_state": "repro.snapshot.engine",
    "save": "repro.snapshot.store",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
