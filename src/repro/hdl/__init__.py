"""Structural HDL IR and Verilog emission."""

from repro._lazy import lazy_exports

_LAZY = {
    "HdlInstance": "repro.hdl.ir",
    "HdlMemory": "repro.hdl.ir",
    "HdlModule": "repro.hdl.ir",
    "HdlPort": "repro.hdl.ir",
    "sanitize": "repro.hdl.ir",
    "emit_design": "repro.hdl.verilog",
    "emit_module": "repro.hdl.verilog",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
