"""Host software generation: C++ headers and Python binding objects."""

from repro._lazy import lazy_exports

_LAZY = {
    "binding_signature": "repro.codegen.cpp",
    "generate_header": "repro.codegen.cpp",
    "response_struct": "repro.codegen.cpp",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
