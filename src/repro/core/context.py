"""Per-core elaboration context.

The context is what a core's constructor receives (the Python analogue of
Chisel's implicit ``Parameters``): it owns the Readers/Writers/Scratchpads
declared in the system configuration for this core and hands them out by
name, records the core's command IOs, and exposes platform parameters.
"""

from __future__ import annotations

from typing import Dict, List

from repro.command.packing import CommandSpec, ResponseSpec
from repro.command.router import BeethovenIO
from repro.core.config import (
    AcceleratorConfig,
    IntraCoreMemoryPortInConfig,
    IntraCoreMemoryPortOutConfig,
    ReadChannelConfig,
    ScratchpadConfig,
    WriteChannelConfig,
)
from repro.core.intra import IntraCoreLink, IntraCoreMemory
from repro.memory.master import BurstMaster
from repro.memory.reader import Reader
from repro.memory.scratchpad import Scratchpad
from repro.memory.writer import Writer
from repro.platforms.base import Platform


class CoreContext:
    """Everything one core instance may touch during construction."""

    def __init__(
        self,
        system_name: str,
        system_id: int,
        core_id: int,
        config: AcceleratorConfig,
        platform: Platform,
    ) -> None:
        self.system_name = system_name
        self.system_id = system_id
        self.core_id = core_id
        self.config = config
        self.platform = platform
        self.readers: Dict[str, List[Reader]] = {}
        self.writers: Dict[str, List[Writer]] = {}
        self.scratchpads: Dict[str, Scratchpad] = {}
        self.intra_in: Dict[str, IntraCoreMemory] = {}
        self.intra_out: Dict[str, List[IntraCoreLink]] = {}
        self.ios: List[BeethovenIO] = []
        self._build_primitives()

    # -- construction -------------------------------------------------------
    def _build_primitives(self) -> None:
        prefix = f"{self.system_name}.c{self.core_id}"
        for cfg in self.config.memory_channel_config:
            if isinstance(cfg, ReadChannelConfig):
                tuning = cfg.tuning or self.platform.master_tuning
                self.readers[cfg.name] = [
                    Reader(
                        f"{prefix}.{cfg.name}{i}",
                        cfg.data_bytes,
                        self.platform.axi_params,
                        tuning,
                    )
                    for i in range(cfg.n_channels)
                ]
            elif isinstance(cfg, WriteChannelConfig):
                tuning = cfg.tuning or self.platform.master_tuning
                self.writers[cfg.name] = [
                    Writer(
                        f"{prefix}.{cfg.name}{i}",
                        cfg.data_bytes,
                        self.platform.axi_params,
                        tuning,
                    )
                    for i in range(cfg.n_channels)
                ]
            elif isinstance(cfg, ScratchpadConfig):
                self.scratchpads[cfg.name] = Scratchpad(
                    f"{prefix}.{cfg.name}",
                    cfg.data_width_bits,
                    cfg.n_datas,
                    self.platform.axi_params,
                    n_ports=cfg.n_ports,
                    latency=cfg.latency,
                    with_init=cfg.features.init_via_reader,
                    reader_tuning=self.platform.master_tuning,
                )
            elif isinstance(cfg, IntraCoreMemoryPortInConfig):
                self.intra_in[cfg.name] = IntraCoreMemory(
                    f"{prefix}.{cfg.name}",
                    cfg.data_width_bits,
                    cfg.n_datas,
                    cfg.n_channels,
                    cfg.ports_per_channel,
                    cfg.latency,
                    read_only_local=cfg.read_only,
                )
            elif isinstance(cfg, IntraCoreMemoryPortOutConfig):
                self.intra_out[cfg.name] = [
                    IntraCoreLink(f"{prefix}.{cfg.name}.out{i}")
                    for i in range(cfg.n_channels)
                ]
            else:  # pragma: no cover - config union is closed
                raise TypeError(f"unknown memory channel config {cfg!r}")

    # -- core-facing API ------------------------------------------------------
    def beethoven_io(self, command: CommandSpec, response: ResponseSpec) -> BeethovenIO:
        io = BeethovenIO(
            command, response, owner=f"{self.system_name}.c{self.core_id}"
        )
        self.ios.append(io)
        return io

    def get_reader_module(self, name: str, idx: int = 0) -> Reader:
        try:
            return self.readers[name][idx]
        except (KeyError, IndexError):
            raise KeyError(
                f"no reader channel {name!r}[{idx}] configured for {self.system_name}"
            ) from None

    def get_writer_module(self, name: str, idx: int = 0) -> Writer:
        try:
            return self.writers[name][idx]
        except (KeyError, IndexError):
            raise KeyError(
                f"no writer channel {name!r}[{idx}] configured for {self.system_name}"
            ) from None

    def get_scratchpad(self, name: str) -> Scratchpad:
        try:
            return self.scratchpads[name]
        except KeyError:
            raise KeyError(
                f"no scratchpad {name!r} configured for {self.system_name}"
            ) from None

    def get_intra_core_mem_ins(self, name: str) -> IntraCoreMemory:
        return self.intra_in[name]

    def get_intra_core_mem_out(self, name: str) -> List[IntraCoreLink]:
        return self.intra_out[name]

    # -- elaborator-facing API -------------------------------------------------
    def masters(self) -> List[BurstMaster]:
        """This core's AXI masters: its Readers, its Writers, then each
        scratchpad's init Reader."""
        masters: List[BurstMaster] = []
        for readers in self.readers.values():
            masters += readers
        for writers in self.writers.values():
            masters += writers
        masters += [sp.reader for sp in self.scratchpads.values() if sp.reader is not None]
        return masters

    def all_axi_masters(self):
        """Every AXI master port this core contributes to the memory NoC."""
        return [master.port for master in self.masters()]

    def all_components(self):
        comps = []
        for readers in self.readers.values():
            comps += readers
        for writers in self.writers.values():
            comps += writers
        for sp in self.scratchpads.values():
            comps.append(sp)
            comps += sp.components()
        comps += list(self.intra_in.values())
        return comps
