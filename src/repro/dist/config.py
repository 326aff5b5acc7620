"""Configuration for sharded (distributed) simulation.

``BeethovenBuild(..., distributed=DistConfig(n_workers=4))`` partitions the
elaborated design at SLR boundaries and advances the partitions in lockstep
slices, synchronized conservatively at the inter-SLR bridges (see
:mod:`repro.dist.partition` for the contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class DistError(RuntimeError):
    """A design cannot be partitioned as requested (no cut points,
    zero-latency bridges, unpartitionable coupling, bad worker count)."""


@dataclass(frozen=True)
class DistConfig:
    """How to shard one design into simulation partitions.

    * ``n_workers`` — number of partitions.  Partition 0 always holds the
      memory/host-interface die plus the runtime-facing infrastructure;
      remaining SLRs are grouped onto the other partitions by core count.
    * ``slice_width`` — cycles simulated between barriers.  Defaults to the
      minimum bridge latency (the conservative lookahead bound); smaller is
      allowed, larger is rejected because it would let bridge traffic arrive
      late.
    """

    n_workers: int = 2
    slice_width: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_workers < 2:
            raise DistError("distributed simulation needs n_workers >= 2")
        if self.slice_width is not None and self.slice_width < 1:
            raise DistError("slice_width must be >= 1 when given")
