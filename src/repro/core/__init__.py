"""The Beethoven core framework: configs, cores, elaboration, builds."""

from repro._lazy import lazy_exports

_LAZY = {
    "AcceleratorCore": "repro.core.accelerator",
    "BeethovenBuild": "repro.core.build",
    "BuildMode": "repro.core.build",
    "InfeasibleDesignError": "repro.core.build",
    "AcceleratorConfig": "repro.core.config",
    "ReadChannelConfig": "repro.core.config",
    "WriteChannelConfig": "repro.core.config",
    "ScratchpadConfig": "repro.core.config",
    "ScratchpadFeatures": "repro.core.config",
    "IntraCoreMemoryPortInConfig": "repro.core.config",
    "IntraCoreMemoryPortOutConfig": "repro.core.config",
    "as_config_list": "repro.core.config",
    "CoreContext": "repro.core.context",
    "ElaboratedCore": "repro.core.elaboration",
    "ElaboratedDesign": "repro.core.elaboration",
    "ElaboratedSystem": "repro.core.elaboration",
    "IntraCoreLink": "repro.core.intra",
    "IntraCoreMemory": "repro.core.intra",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
