"""FPGA device models: per-SLR resource inventories and shell footprints.

The numbers for the VU9P (Alveo U200 / AWS F1) are the public device totals
split evenly over its three SLRs; the AWS F1 shell footprint is calibrated
from the paper's Table II (total-with-shell minus Beethoven-only rows) and is
anchored to SLR0/SLR1, which is what motivated Beethoven's per-SLR placement
affinity in the A^3 case study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ResourceVector:
    """CLB/LUT/FF/BRAM36/URAM amounts (absolute counts)."""

    clb: float = 0.0
    lut: float = 0.0
    reg: float = 0.0
    bram: float = 0.0
    uram: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.clb + other.clb,
            self.lut + other.lut,
            self.reg + other.reg,
            self.bram + other.bram,
            self.uram + other.uram,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.clb - other.clb,
            self.lut - other.lut,
            self.reg - other.reg,
            self.bram - other.bram,
            self.uram - other.uram,
        )

    def scaled(self, k: float) -> "ResourceVector":
        return ResourceVector(
            self.clb * k, self.lut * k, self.reg * k, self.bram * k, self.uram * k
        )

    def fits_in(self, capacity: "ResourceVector") -> bool:
        return (
            self.clb <= capacity.clb
            and self.lut <= capacity.lut
            and self.reg <= capacity.reg
            and self.bram <= capacity.bram
            and self.uram <= capacity.uram
        )

    def utilisation_of(self, capacity: "ResourceVector") -> Dict[str, float]:
        out = {}
        for key in ("clb", "lut", "reg", "bram", "uram"):
            cap = getattr(capacity, key)
            out[key] = getattr(self, key) / cap if cap else 0.0
        return out

    def max_utilisation_of(self, capacity: "ResourceVector") -> float:
        return max(self.utilisation_of(capacity).values())


@dataclass
class FpgaDevice:
    """A (possibly multi-die) FPGA."""

    name: str
    slr_capacity: List[ResourceVector]
    shell_usage: Dict[int, ResourceVector] = field(default_factory=dict)
    memory_interface_slr: int = 0
    host_interface_slr: int = 0

    @property
    def n_slrs(self) -> int:
        return len(self.slr_capacity)

    def total_capacity(self) -> ResourceVector:
        total = ResourceVector()
        for cap in self.slr_capacity:
            total = total + cap
        return total

    def free_capacity(self, slr: int) -> ResourceVector:
        cap = self.slr_capacity[slr]
        shell = self.shell_usage.get(slr, ResourceVector())
        return cap - shell


def _vu9p_slr() -> ResourceVector:
    # VU9P totals: ~1182k LUT, 2364k FF, 2160 BRAM36, 960 URAM, ~147k CLB.
    return ResourceVector(clb=49_260, lut=394_080, reg=788_160, bram=720, uram=320)


def make_vu9p_aws_f1() -> FpgaDevice:
    """The Alveo U200 / AWS F1 target with the F1 shell pre-placed.

    Shell footprint ≈ Table II (total w/ shell − Beethoven rows):
    ~31K CLB, 150K LUT, 206K FF, 140 BRAM, 43 URAM, split 70/30 over
    SLR0/SLR1 (the shell's fixed regions).
    """
    shell = ResourceVector(clb=31_000, lut=150_000, reg=206_000, bram=140, uram=43)
    return FpgaDevice(
        name="xcvu9p",
        slr_capacity=[_vu9p_slr(), _vu9p_slr(), _vu9p_slr()],
        shell_usage={0: shell.scaled(0.7), 1: shell.scaled(0.3)},
        memory_interface_slr=0,
        host_interface_slr=0,
    )


def make_multi_die(n_slrs: int) -> FpgaDevice:
    """A synthetic ``n_slrs``-die device of VU9P-class SLRs.

    Interfaces stay on SLR0 (the common Alveo arrangement), so every other
    die reaches memory through an SLR-crossing pipe.
    """
    if n_slrs < 1:
        raise ValueError("a device needs at least one SLR")
    return FpgaDevice(
        name=f"multi-die-{n_slrs}",
        slr_capacity=[_vu9p_slr() for _ in range(n_slrs)],
        memory_interface_slr=0,
        host_interface_slr=0,
    )


def make_kria_k26() -> FpgaDevice:
    """The Kria KV260 (Zynq UltraScale+ K26 SOM): a single-die device."""
    return FpgaDevice(
        name="xck26",
        slr_capacity=[
            ResourceVector(clb=14_616, lut=116_928, reg=233_856, bram=144, uram=64)
        ],
        shell_usage={0: ResourceVector(clb=1_200, lut=8_000, reg=12_000, bram=4, uram=0)},
    )
