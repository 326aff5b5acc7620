"""Structural HDL intermediate representation.

The paper's Beethoven elaborates Chisel into FIRRTL/Verilog.  We reproduce
the *composition* layer: a structural IR of modules, typed ports, nets and
memory instances, which the elaborator populates while it builds the
simulation model, and which can be emitted as synthesisable-looking Verilog
netlists plus constraint files.  Behavioural bodies are represented as
attributes/comments (reduced fidelity, per DESIGN.md): what matters for the
reproduction is that the hierarchy, port widths, memory shapes and placement
annotations — the inputs to floorplanning, memcell mapping and resource
estimation — are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def sanitize(name: str) -> str:
    """Make an arbitrary instance path a legal Verilog identifier."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "m_" + cleaned
    return cleaned


@dataclass(frozen=True)
class HdlPort:
    name: str
    direction: str  # "input" | "output"
    width: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise ValueError(f"bad port direction {self.direction!r}")
        if self.width < 1:
            raise ValueError(f"bad port width {self.width}")
        if not _IDENT.match(self.name):
            raise ValueError(f"illegal port name {self.name!r}")


@dataclass
class HdlMemory:
    """An on-chip memory instance; the memcell mapper annotates it."""

    name: str
    width_bits: int
    depth: int
    n_read_ports: int = 1
    n_write_ports: int = 1
    latency: int = 1
    cell_mapping: Optional[str] = None  # "BRAM" | "URAM" | "LUTRAM" | "SRAM_MACRO"
    macro_plan: Optional[object] = None  # filled by the ASIC memory compiler

    @property
    def bits(self) -> int:
        return self.width_bits * self.depth


@dataclass
class HdlInstance:
    inst_name: str
    module: "HdlModule"
    connections: Dict[str, str] = field(default_factory=dict)  # port -> net


class HdlModule:
    """A module definition: ports, nets, child instances, memories."""

    def __init__(self, name: str, doc: str = "") -> None:
        if not _IDENT.match(name):
            raise ValueError(f"illegal module name {name!r}")
        self.name = name
        self.doc = doc
        self.ports: List[HdlPort] = []
        self.nets: Dict[str, int] = {}  # net name -> width
        self.instances: List[HdlInstance] = []
        self.memories: List[HdlMemory] = []
        self.attrs: Dict[str, object] = {}  # slr, resource annotations, etc.

    # -- construction -----------------------------------------------------
    def add_port(self, name: str, direction: str, width: int = 1) -> HdlPort:
        if any(p.name == name for p in self.ports):
            raise ValueError(f"duplicate port {name!r} on {self.name}")
        port = HdlPort(name, direction, width)
        self.ports.append(port)
        return port

    def add_net(self, name: str, width: int = 1) -> str:
        if not _IDENT.match(name):
            raise ValueError(f"illegal net name {name!r}")
        existing = self.nets.get(name)
        if existing is not None and existing != width:
            raise ValueError(f"net {name!r} redefined with different width")
        self.nets[name] = width
        return name

    def instantiate(
        self, module: "HdlModule", inst_name: str, connections: Optional[Dict[str, str]] = None
    ) -> HdlInstance:
        inst_name = sanitize(inst_name)
        if any(i.inst_name == inst_name for i in self.instances):
            raise ValueError(f"duplicate instance {inst_name!r} in {self.name}")
        conns = dict(connections or {})
        port_names = {p.name for p in module.ports}
        unknown = set(conns) - port_names
        if unknown:
            raise ValueError(
                f"instance {inst_name!r}: no such ports {sorted(unknown)} on {module.name}"
            )
        inst = HdlInstance(inst_name, module, conns)
        self.instances.append(inst)
        return inst

    def add_memory(self, mem: HdlMemory) -> HdlMemory:
        self.memories.append(mem)
        return mem

    # -- queries ------------------------------------------------------------
    def walk(self) -> Iterable["HdlModule"]:
        """Yield this module and all unique descendants, leaves first."""
        seen: Dict[str, HdlModule] = {}

        def visit(mod: "HdlModule") -> None:
            for inst in mod.instances:
                visit(inst.module)
            if mod.name not in seen:
                seen[mod.name] = mod

        visit(self)
        return seen.values()

    def all_memories(self) -> List[Tuple[str, HdlMemory]]:
        """(hierarchical path, memory) for every memory in the tree."""
        out: List[Tuple[str, HdlMemory]] = []

        def visit(mod: "HdlModule", path: str) -> None:
            for mem in mod.memories:
                out.append((f"{path}/{mem.name}" if path else mem.name, mem))
            for inst in mod.instances:
                visit(inst.module, f"{path}/{inst.inst_name}" if path else inst.inst_name)

        visit(self, "")
        return out
