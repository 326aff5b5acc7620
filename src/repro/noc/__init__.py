"""Generated on-chip networks: buffer trees, SLR bridges, ID compression."""

from repro._lazy import lazy_exports

_LAZY = {
    "AxiBufferNode": "repro.noc.axi_node",
    "AxiPipe": "repro.noc.axi_node",
    "IdCompressor": "repro.noc.idmap",
    "PlainAxiLink": "repro.noc.links",
    "as_link": "repro.noc.links",
    "bits_for": "repro.noc.axi_node",
    "BuiltNetwork": "repro.noc.tree",
    "TreeBuilder": "repro.noc.tree",
    "TreeConfig": "repro.noc.tree",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
