"""Accelerator configuration (paper Figure 3a).

Configurations let the developer declare memory interfaces for a Core, scale
the core count of a System, or add whole Systems, without touching the
functional description of the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.fpga.device import ResourceVector
from repro.memory.reader import ReaderTuning
from repro.memory.writer import WriterTuning


@dataclass(frozen=True)
class ReadChannelConfig:
    """Declares a named Reader channel group for a Core."""

    name: str
    data_bytes: int
    n_channels: int = 1
    tuning: Optional[ReaderTuning] = None

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("n_channels must be >= 1")


@dataclass(frozen=True)
class WriteChannelConfig:
    """Declares a named Writer channel group for a Core."""

    name: str
    data_bytes: int
    n_channels: int = 1
    tuning: Optional[WriterTuning] = None

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ValueError("n_channels must be >= 1")


@dataclass(frozen=True)
class ScratchpadFeatures:
    """Optional scratchpad behaviours."""

    init_via_reader: bool = True
    #: Two banks so the next operand set can load while the current one is
    #: read (costs double the memory cells — the A^3 scratchpads use this).
    double_buffered: bool = False


@dataclass(frozen=True)
class ScratchpadConfig:
    """Declares a named Beethoven-managed scratchpad for a Core."""

    name: str
    data_width_bits: int
    n_datas: int
    n_ports: int = 1
    latency: int = 2
    features: ScratchpadFeatures = field(default_factory=ScratchpadFeatures)


@dataclass(frozen=True)
class IntraCoreMemoryPortInConfig:
    """A scratchpad writeable from other cores on chip (appendix)."""

    name: str
    n_channels: int
    ports_per_channel: int
    data_width_bits: int
    n_datas: int
    comm_degree: str = "point_to_point"  # or "broadcast"
    read_only: bool = False
    latency: int = 2


@dataclass(frozen=True)
class IntraCoreMemoryPortOutConfig:
    """A write port into another system's intra-core memory (appendix)."""

    name: str
    to_system: str
    to_memory_port: str
    n_channels: int = 1


MemoryChannelConfig = Union[
    ReadChannelConfig,
    WriteChannelConfig,
    ScratchpadConfig,
    IntraCoreMemoryPortInConfig,
    IntraCoreMemoryPortOutConfig,
]


@dataclass(frozen=True)
class AcceleratorConfig:
    """One Beethoven System: ``n_cores`` identical cores of one module type.

    ``module_constructor`` receives a :class:`~repro.core.context.CoreContext`
    and returns the user's :class:`~repro.core.accelerator.AcceleratorCore`.
    Because the cores are identical, elaboration costs the whole System from
    core 0 (its constructor, IO checks and ``kernel_resources()``) and
    constructs cores 1…N−1 only when the design is instantiated for
    simulation; a constructor that fails only for a later core therefore
    fails at that first use, not in ``BeethovenBuild(...)``.
    """

    name: str
    n_cores: int
    module_constructor: Callable
    memory_channel_config: Sequence[MemoryChannelConfig] = ()
    kernel_resources: Optional[ResourceVector] = None  # per-core logic estimate

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("a System needs at least one core")
        names = [c.name for c in self.memory_channel_config]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate memory channel names in {self.name!r}")

    def channel(self, name: str) -> MemoryChannelConfig:
        for cfg in self.memory_channel_config:
            if cfg.name == name:
                return cfg
        raise KeyError(f"no memory channel {name!r} in system {self.name!r}")


def as_config_list(
    configs: Union[AcceleratorConfig, Sequence[AcceleratorConfig]]
) -> List[AcceleratorConfig]:
    if isinstance(configs, AcceleratorConfig):
        return [configs]
    out = list(configs)
    names = [c.name for c in out]
    if len(set(names)) != len(names):
        raise ValueError("duplicate System names in accelerator configuration")
    return out
