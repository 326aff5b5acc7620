"""Bank-level DRAM model with an AXI4 frontend (DRAMsim3-inspired)."""

from repro._lazy import lazy_exports

_LAZY = {
    "Bank": "repro.dram.bank",
    "MemoryController": "repro.dram.controller",
    "MemoryStore": "repro.dram.store",
    "DramTiming": "repro.dram.timing",
    "DDR4_AWS_F1": "repro.dram.timing",
    "LPDDR4_KRIA": "repro.dram.timing",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
