"""Supported deployment platforms (paper Section II-D)."""

from repro._lazy import lazy_exports

_LAZY = {
    "Platform": "repro.platforms.base",
    "HostInterface": "repro.platforms.base",
    "kernel_mode": "repro.platforms.base",
    "AWSF1Platform": "repro.platforms.fpga_platforms",
    "KriaPlatform": "repro.platforms.fpga_platforms",
    "multi_die_platform": "repro.platforms.fpga_platforms",
    "Asap7Platform": "repro.platforms.asic_platforms",
    "AsicPlatform": "repro.platforms.asic_platforms",
    "ChipKitPlatform": "repro.platforms.asic_platforms",
    "SimulationPlatform": "repro.platforms.fpga_platforms",
    "SynopsysPdkPlatform": "repro.platforms.asic_platforms",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
