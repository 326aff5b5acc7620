"""FPGA device models, floorplanning, memcell mapping, resource estimation."""

from repro._lazy import lazy_exports

_LAZY = {
    "FpgaDevice": "repro.fpga.device",
    "ResourceVector": "repro.fpga.device",
    "make_kria_k26": "repro.fpga.device",
    "make_vu9p_aws_f1": "repro.fpga.device",
    "Floorplanner": "repro.fpga.floorplan",
    "Placement": "repro.fpga.floorplan",
    "RoutabilityReport": "repro.fpga.floorplan",
    "emit_constraints": "repro.fpga.floorplan",
    "routability_report": "repro.fpga.floorplan",
    "UTIL_HARD_LIMIT": "repro.fpga.floorplan",
    "FANOUT_HARD_LIMIT": "repro.fpga.floorplan",
    "MemcellMapper": "repro.fpga.memcells",
    "MemcellUsage": "repro.fpga.memcells",
    "SPILL_THRESHOLD": "repro.fpga.memcells",
    "bram_count": "repro.fpga.memcells",
    "uram_count": "repro.fpga.memcells",
    "CostModel": "repro.fpga.resources",
    "ResourceEstimator": "repro.fpga.resources",
    "clb_for": "repro.fpga.resources",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
