"""MachSuite benchmark kernels (paper Section III-B, Table I)."""

from repro._lazy import lazy_exports

_LAZY = {
    "GemmCore": "repro.kernels.machsuite.gemm",
    "gemm_config": "repro.kernels.machsuite.gemm",
    "NwCore": "repro.kernels.machsuite.nw",
    "nw_config": "repro.kernels.machsuite.nw",
    "Stencil2dCore": "repro.kernels.machsuite.stencil",
    "Stencil3dCore": "repro.kernels.machsuite.stencil",
    "stencil2d_config": "repro.kernels.machsuite.stencil",
    "stencil3d_config": "repro.kernels.machsuite.stencil",
    "MdKnnCore": "repro.kernels.machsuite.mdknn",
    "mdknn_config": "repro.kernels.machsuite.mdknn",
    "KernelPlan": "repro.kernels.machsuite.phased",
    "PhasedKernelCore": "repro.kernels.machsuite.phased",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
