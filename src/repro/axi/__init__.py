"""Transaction-level AXI4 protocol model."""

from repro._lazy import lazy_exports

_LAZY = {
    "ARReq": "repro.axi.types",
    "AWReq": "repro.axi.types",
    "AxiParams": "repro.axi.types",
    "AxiPort": "repro.axi.types",
    "AxiMonitor": "repro.axi.monitor",
    "MonitoredAxiPort": "repro.axi.monitor",
    "BResp": "repro.axi.types",
    "RBeat": "repro.axi.types",
    "WBeat": "repro.axi.types",
    "TxnRecord": "repro.axi.monitor",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
