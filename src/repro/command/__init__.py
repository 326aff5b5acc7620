"""Host-to-accelerator command subsystem (RoCC over MMIO)."""

from repro._lazy import lazy_exports

_LAZY = {
    "ADDRESS_WIDTH": "repro.command.packing",
    "Address": "repro.command.packing",
    "CommandSpec": "repro.command.packing",
    "EmptyAccelResponse": "repro.command.packing",
    "Field": "repro.command.packing",
    "Float32": "repro.command.packing",
    "ResponseSpec": "repro.command.packing",
    "UInt": "repro.command.packing",
    "CUSTOM_0": "repro.command.rocc",
    "RoccInstruction": "repro.command.rocc",
    "RoccResponse": "repro.command.rocc",
    "BeethovenIO": "repro.command.router",
    "CommandRouter": "repro.command.router",
    "CoreCommandAdapter": "repro.command.router",
    "MmioFrontend": "repro.command.router",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
