"""ASIC backend: SRAM macro libraries, memory compiler, ChipKIT tops."""

from repro._lazy import lazy_exports

_LAZY = {
    "ChipKitIntegration": "repro.asic.chipkit",
    "MissingCpuSourceError": "repro.asic.chipkit",
    "ASAP7_MACROS": "repro.asic.macros",
    "SAED_MACROS": "repro.asic.macros",
    "MacroPlan": "repro.asic.macros",
    "MemoryCompiler": "repro.asic.macros",
    "MemoryCompilerError": "repro.asic.macros",
    "SramMacro": "repro.asic.macros",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
