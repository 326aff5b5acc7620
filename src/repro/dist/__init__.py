"""Sharded parallel simulation: one SoC partitioned across worker processes.

``BeethovenBuild(..., distributed=DistConfig(n_workers=4))`` cuts the
elaborated design at its SLR-bridge boundaries (the only inter-partition
edges are fixed-latency ``AxiPipe`` crossings and the command-network hops
into remote SLRs), runs each partition under its own simulator — optionally
in forked worker processes — and synchronizes them conservatively in cycle
slices bounded by the minimum bridge latency.  Metrics, completion cycles
and fault fingerprints are bit-identical to the in-process reference; see
DESIGN.md ("Sharded simulation") for the lookahead argument.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "BridgeEgress": "repro.dist.bridge",
    "BridgeIngress": "repro.dist.bridge",
    "BridgeSpec": "repro.dist.partition",
    "CommandProxy": "repro.dist.bridge",
    "DIST_ENGINES": "repro.dist.config",
    "DistConfig": "repro.dist.config",
    "DistError": "repro.dist.config",
    "DistSimulator": "repro.dist.engine",
    "MergedRegistry": "repro.dist.engine",
    "PartitionDescriptor": "repro.dist.partition",
    "PartitionPlan": "repro.dist.partition",
    "plan_partitions": "repro.dist.partition",
    "register_partitioned": "repro.dist.partition",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
