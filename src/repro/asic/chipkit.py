"""ChipKIT-style ASIC top-level integration.

ChipKIT test chips host an on-chip ARM Cortex-M0 that plays the role the PCIe
host plays on FPGA targets.  The M0 core itself is ARM-licensed and cannot be
redistributed, so — exactly as the paper does — we require the developer to
*supply a path* to their licensed M0 source, and Beethoven performs the rest
of the integration: it instantiates the CPU in the generated top level and
wires it to the Beethoven command fabric and memory ports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.hdl.ir import HdlModule


class MissingCpuSourceError(FileNotFoundError):
    """Raised when the licensed ARM M0 source path is absent."""


@dataclass(frozen=True)
class ChipKitIntegration:
    """Parameters for a ChipKIT-style test chip build."""

    m0_source_path: str

    def validate(self) -> None:
        if not self.m0_source_path:
            raise MissingCpuSourceError(
                "ChipKIT integration needs a path to the licensed ARM M0 source "
                "(Beethoven cannot redistribute it)"
            )
        if not os.path.exists(self.m0_source_path):
            raise MissingCpuSourceError(
                f"ARM M0 source not found at {self.m0_source_path!r}"
            )

    def build_top(self, fabric_top: HdlModule) -> HdlModule:
        """Wrap the Beethoven fabric with the on-chip CPU."""
        self.validate()
        top = HdlModule(
            "chipkit_top",
            doc=(
                "ChipKIT-style test chip: on-chip ARM M0 host connected "
                "directly to the Beethoven command/memory fabric "
                f"(CPU source: {self.m0_source_path})"
            ),
        )
        top.add_port("clk", "input")
        top.add_port("rst_n", "input")
        top.add_port("uart_tx", "output")
        top.add_port("uart_rx", "input")
        cpu = HdlModule(
            "arm_cortex_m0",
            doc="Licensed ARM Cortex-M0 (user-supplied source, not emitted)",
        )
        cpu.add_port("clk", "input")
        cpu.add_port("rst_n", "input")
        cpu.add_port("mmio_cmd", "output", 32)
        cpu.add_port("mmio_resp", "input", 32)
        top.add_net("mmio_cmd_w", 32)
        top.add_net("mmio_resp_w", 32)
        top.instantiate(
            cpu,
            "u_cpu",
            {"clk": "clk", "rst_n": "rst_n", "mmio_cmd": "mmio_cmd_w", "mmio_resp": "mmio_resp_w"},
        )
        top.instantiate(fabric_top, "u_beethoven", {})
        return top
