"""Accelerator kernels used by the examples, tests and benchmarks."""

from repro._lazy import lazy_exports

_LAZY = {
    "VectorAddCore": "repro.kernels.vecadd",
    "vector_add_config": "repro.kernels.vecadd",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
