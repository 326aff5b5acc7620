"""Configuration for sharded (distributed) simulation.

``BeethovenBuild(..., distributed=DistConfig(n_workers=4))`` partitions the
elaborated design at SLR boundaries and runs each partition in its own
process, synchronized conservatively at the inter-SLR bridges (see
:mod:`repro.dist.partition` for the contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Valid ``DistConfig.engine`` values.  ``"serial"`` runs every partition
#: in-process through the same slice/barrier loop — it is the bit-identity
#: reference the differential harness compares ``"fork"`` against.
DIST_ENGINES = ("auto", "fork", "serial")


class DistError(RuntimeError):
    """A design cannot be partitioned as requested (no cut points,
    zero-latency bridges, unpartitionable coupling, bad worker count)."""


@dataclass(frozen=True)
class DistConfig:
    """How to shard one design across simulation worker processes.

    * ``n_workers`` — number of partitions.  Partition 0 (the supervisor's
      own) always holds the memory/host-interface die plus the runtime-facing
      infrastructure; remaining SLRs are grouped onto the other workers by
      core count.
    * ``slice_width`` — cycles simulated between barriers.  Defaults to the
      minimum bridge latency (the conservative lookahead bound); smaller is
      allowed, larger is rejected because it would let bridge traffic arrive
      late.
    * ``engine`` — ``"fork"`` (real worker processes), ``"serial"``
      (all partitions in-process, the determinism reference), or ``"auto"``
      (fork when the platform supports it, else serial).
    * ``barrier_timeout_s`` — wall-clock budget a worker gets to reach each
      slice barrier before the supervisor raises
      :class:`repro.sim.PartitionSyncTimeout`.
    * ``checkpoint_every_slices`` — with a positive value the fork engine
      collects a barrier-aligned checkpoint of every partition each N slices
      and *arms worker failover*: a worker that dies, errors, or misses the
      barrier deadline is respawned and the whole simulation rolls back to
      the last checkpoint instead of raising a terminal
      :class:`repro.sim.PartitionSyncTimeout`.  ``0`` (the default) keeps
      the historical fail-fast behaviour.
    * ``max_restarts`` — worker-failover budget for one run; exhausted
      budget (or a failure before the first checkpoint) fails terminally.
    """

    n_workers: int = 2
    slice_width: Optional[int] = None
    engine: str = "auto"
    barrier_timeout_s: float = 60.0
    checkpoint_every_slices: int = 0
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if self.n_workers < 2:
            raise DistError("distributed simulation needs n_workers >= 2")
        if self.engine not in DIST_ENGINES:
            raise DistError(
                f"unknown dist engine {self.engine!r}; pick one of {DIST_ENGINES}"
            )
        if self.slice_width is not None and self.slice_width < 1:
            raise DistError("slice_width must be >= 1 when given")
        # Written so NaN fails too: a NaN deadline never expires.
        if not self.barrier_timeout_s > 0:
            raise DistError("barrier_timeout_s must be > 0")
        if self.checkpoint_every_slices < 0:
            raise DistError("checkpoint_every_slices must be >= 0")
        if self.max_restarts < 0:
            raise DistError("max_restarts must be >= 0")
